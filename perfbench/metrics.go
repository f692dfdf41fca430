package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is every metric a user of the system sees. Every workload
// reports all of them (see README.md for the per-workload definitions of
// "trial" and "query"). Wall-clock throughput is printed as a note, not
// gated: on a shared host it follows the neighbours' load by more than
// any bound allows (README.md, noise profile).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_ms_per_trial", "ms", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"cpu_us_per_query", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer is every metric of the traced run. A layer the workload does
// not call into reports 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, id := range driverIDs {
		add("ms", "lower", "experiments."+id+".ms")
	}
	add("ms", "lower", "table.encode_ms")
	add("count", "higher", "sim.route.runner", "sim.route.resample", "sim.route.scenario", "sim.route.rebuild")
	add("ratio", "higher", "sim.freelist_hit_ratio")
	add("count", "lower",
		"temporal.index_builds.labelsort", "temporal.index_builds.timeedges", "temporal.index_builds.vertex",
		"temporal.diameter_race.linear", "temporal.diameter_race.frontier")
	for _, m := range sweepModels {
		add("us", "lower", "avail."+m+".draw_us")
	}
	for _, m := range sweepModels {
		add("us", "lower", "temporal."+m+".relabel_us", "temporal."+m+".kernel_us")
	}
	add("count", "lower", "temporal.relabel_edges.patch", "temporal.relabel_edges.rebuild")
	for _, m := range sweepModels {
		add("ms", "lower", "sweep."+m+".self_ms")
		add("count", "lower", "sweep."+m+".batches", "sweep."+m+".trials")
	}
	add("ms", "lower", "temporal.decode_ms", "qindex.build_ms")
	add("us", "lower", "service.handler_us.p50", "service.handler_us.p99", "http.client_us.p50")
	add("ns", "lower", "qindex.hit_ns.p50")
	add("us", "lower", "qindex.late_us.p50", "qindex.late_us.p99", "temporal.frontier_us.p50")
	add("count", "higher", "qindex.hits")
	add("count", "lower", "qindex.misses", "qindex.coalesced")
	add("ratio", "lower", "runtime.gc_cpu_frac")
	add("KB", "lower", "runtime.alloc_kb_per_op")
	add("ratio", "higher", "sim.busy_frac")
	add("ratio", "lower", "host.steal_frac")
	add("ms", "lower", "host.calib_ms")
	return defs
}()

// driverIDs are the experiment ids the paper workload runs, in order.
var driverIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
	"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18"}

// sweepModels are the availability models the sweep workload searches.
var sweepModels = []string{"markov", "geometric", "uniform"}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills a result with exactly the metrics in defs, taking each
// value from vals; a name vals lacks is a bug in the workload. A run is
// correct when none of its operations failed.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// writeLine prints v as one JSON line.
func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
