// Package qindex serves interactive point queries — earliest arrival from
// src to dst for journeys departing no earlier than start — over a fixed
// temporal network, the always-on counterpart of the offline experiment
// loops.
//
// An Index holds precomputed per-source arrival rows in one of three
// modes:
//
//   - ModeFull: the complete n×n arrival table at start = 1 in 16-bit
//     entries (2n² bytes), built 64 sources per pass on the bit-parallel
//     word scan: temporal.ArrivalGroups hands each label group's new
//     arrivals to the build, which stamps them straight into the table.
//     A query hit is one slice lookup.
//   - ModeLRU: a memory-budgeted LRU of arrival rows keyed (src, start).
//     A miss runs one pooled frontier query
//     (temporal.EarliestArrivalsFromInto) and caches the row; eviction
//     recycles row buffers, so the steady state allocates nothing.
//   - ModeOff: no resident rows. Every query runs one point scan
//     (temporal.EarliestArrivalTo) and no frontier kernel: the baseline
//     the differential tests pin the cached modes against.
//
// ModeFull's entries hold the exact start = 1 arrival (0 at src == dst)
// except for two sentinels: 0xFFFF means no journey, answered as
// temporal.Unreachable at every start without scanning, and 0xFFFE means
// an arrival ≥ 0xFFFE, which 16 bits cannot hold beside the sentinels and
// which a point scan answers, counted as a miss, at start = 1 too. In the
// paper's normalized model (lifetime a = n) no entry saturates below
// n = 65534; networks with longer lifetimes keep exact answers and pay a
// scan on their saturated pairs only. LRU rows stay int32.
//
// ModeFull's table lives outside the Go heap on unix builds without
// -race: build takes it from an anonymous private mapping, so the
// collector does not count its 2n² bytes in the live heap it sizes its
// heap goal from, and a served full index costs its table plus a small
// heap rather than about twice the table. Race builds keep the table on the heap,
// because the race detector ignores memory outside the Go heap and data
// segment and would miss the concurrent build's writes; other platforms,
// and a mapping that fails, keep it on the heap too. Index.Close releases
// the table, unmapping a mapped one, and takes it off the resident gauges;
// no query may run during or after Close. An index nobody closes has its
// mapping unmapped by a runtime cleanup once it is unreachable, and its
// table stays on the gauges, as a dropped heap table always did.
//
// Only ModeLRU computes rows at query time. A lookup that would not keep
// its row does not compute one: ModeFull answers a restricted query
// (start > 1) with a point scan, which scans the label-sorted time edges
// from start until dst is first reached. When the start = 1 table already
// says dst is unreachable, ModeFull answers Unreachable as a hit without
// scanning, because raising the departure floor only removes journeys.
// Point scans read the network's lazily filled endpoint column, counted
// as temporal_index_builds_total{index="ends"} (see
// temporal.EarliestArrivalTo); the network is never relabeled under an
// Index, so it is filled once.
//
// Coalescing applies only to stored rows: concurrent ModeLRU misses for
// the same (src, start) row share one underlying kernel run, and the
// waiters are counted (qindex_coalesced_total). Point scans are
// independent and never wait on each other.
//
// Answers are deterministic: the batch, frontier, point and linear
// kernels are pinned bit-identical by differential tests, so the same
// network returns the same arrival for a query regardless of index mode,
// cache state, or interleaving.
//
// The package is instrumented through internal/obs: qindex_hits_total,
// qindex_misses_total, qindex_evictions_total, qindex_coalesced_total,
// qindex_rows_computed_total, the qindex_resident_rows and
// qindex_resident_bytes gauges (2n² per full table, 4n per LRU row), and
// build/compute latency histograms.
package qindex
