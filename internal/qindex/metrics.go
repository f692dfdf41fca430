package qindex

// Process-wide metrics for the query index, exposed through internal/obs.
// Counters are event-driven, so several Index instances in one process
// (tests, one index per loaded network) aggregate instead of clobbering
// each other; the resident gauges move by deltas for the same reason.

import "repro/internal/obs"

var (
	obsHits = obs.NewCounter("qindex_hits_total",
		"Queries answered from a resident arrival row (full table or LRU).")
	obsMisses = obs.NewCounter("qindex_misses_total",
		"Queries that ran a point scan or ran (or waited for) an LRU row compute.")
	obsEvictions = obs.NewCounter("qindex_evictions_total",
		"Arrival rows evicted by the LRU memory budget.")
	obsCoalesced = obs.NewCounter("qindex_coalesced_total",
		"Queries coalesced onto an already in-flight row compute.")
	obsComputes = obs.NewCounter("qindex_rows_computed_total",
		"Arrival rows computed: the full-table build and LRU frontier computes; point scans compute none.")
	obsResident = obs.NewGauge("qindex_resident_rows",
		"Arrival rows currently resident across all indexes.")
	obsResidentBytes = obs.NewGauge("qindex_resident_bytes",
		"Bytes of arrival storage currently resident across all indexes: 2n^2 per full table, 4n per LRU row.")
	obsComputeNS = obs.NewHistogram("qindex_row_compute_ns",
		"Latency of one on-miss frontier row compute in nanoseconds.")
	obsBuildNS = obs.NewHistogram("qindex_build_ns",
		"Latency of one full-table index build in nanoseconds.")
)
