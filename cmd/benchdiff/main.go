// Command benchdiff is the CI performance-regression gate: it compares a
// fresh kernel benchmark run (BENCH_kernels.json, the cmd/benchjson
// format) against a committed baseline and exits nonzero when a gated
// benchmark regressed.
//
// Gated benchmarks are the ones whose stripped name starts with one of
// the comma-separated -gate prefixes (default "Kernel,Obs,Query,SweepBatched",
// i.e. the BenchmarkKernel*, BenchmarkObs* and BenchmarkQuery* families plus
// the BenchmarkSweepBatched* engine benchmarks — the batched trial engine is
// a headline optimization, so its cell throughput and allocation counts are
// regression-gated alongside the kernels). A gated benchmark fails when
//
//   - its ns/op grew by more than -max-ns-regress (default 0.30 = +30%)
//     over the baseline, or
//   - its allocs/op increased at all — allocation counts are exact and
//     machine-independent, so any growth is a real regression (the batched
//     trial engine's 0 allocs/op steady state is pinned this way), or
//   - it is present in the baseline but missing from the fresh run — a
//     silently dropped benchmark would blind the gate.
//
// Any benchmark, gated or not, fails when its fresh run used a different
// GOMAXPROCS (the procs field) from its baseline entry: allocation counts
// change wherever work is sharded over workers, and contention benchmarks
// measure procs itself, so such a pair compares nothing. `make bench` pins
// -cpu 1, the procs the baseline was taken at.
//
// A benchmark that appears more than once in a file — `go test -count N`
// writes one entry per run, and `make bench` runs -count 5 — is folded to
// one entry first: the median ns/op and the largest allocs/op (see fold),
// so the limit compares medians rather than single runs that swing with
// host noise.
//
// Benchmarks new in the fresh run pass (they have no baseline yet; commit
// an updated baseline to start gating them). Non-gated benchmarks are
// reported but never fail the run — wall-clock numbers for the experiment
// and sweep suites drift with machine load, and the gate must not flap on
// them.
//
// Usage:
//
//	go run ./cmd/benchdiff -baseline testdata/bench_baseline.json BENCH_kernels.json
//
// To refresh the baseline after an intentional performance change:
//
//	make bench && cp BENCH_kernels.json testdata/bench_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Benchmark mirrors cmd/benchjson's entry shape.
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report mirrors cmd/benchjson's document shape.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

var (
	baselinePath = flag.String("baseline", "testdata/bench_baseline.json", "baseline BENCH_kernels.json to compare against")
	maxNsRegress = flag.Float64("max-ns-regress", 0.30, "maximum tolerated fractional ns/op growth on gated benchmarks")
	gatePrefix   = flag.String("gate", "Kernel,Obs,Query,SweepBatched", "comma-separated benchmark-name prefixes (after the Benchmark prefix is stripped) that are gated")
)

// gatedBy reports whether name starts with any of the comma-separated
// prefixes in gate.
func gatedBy(name, gate string) bool {
	for _, p := range strings.Split(gate, ",") {
		if p != "" && strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func load(path string) (map[string]Benchmark, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	runs := make(map[string][]Benchmark, len(rep.Benchmarks))
	order := make([]string, 0, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		if _, dup := runs[b.Name]; !dup {
			order = append(order, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	byName := make(map[string]Benchmark, len(runs))
	for name, rs := range runs {
		byName[name] = fold(rs)
	}
	return byName, order, nil
}

// fold merges the repeated runs of one benchmark into one entry: the
// median of every metric, except allocs/op, which takes the largest
// value. Allocation counts are exact, so a single run that allocates more
// is a real regression that a median would hide.
func fold(runs []Benchmark) Benchmark {
	if len(runs) == 1 {
		return runs[0]
	}
	out := Benchmark{Name: runs[0].Name, Procs: runs[0].Procs, Metrics: map[string]float64{}}
	vals := map[string][]float64{}
	for _, r := range runs {
		out.Iterations += r.Iterations
		for unit, v := range r.Metrics {
			vals[unit] = append(vals[unit], v)
		}
	}
	for unit, vs := range vals {
		sort.Float64s(vs)
		if unit == "allocs/op" {
			out.Metrics[unit] = vs[len(vs)-1]
			continue
		}
		mid := len(vs) / 2
		if len(vs)%2 == 0 {
			out.Metrics[unit] = (vs[mid-1] + vs[mid]) / 2
		} else {
			out.Metrics[unit] = vs[mid]
		}
	}
	return out
}

// diff compares fresh against base and returns the human-readable report
// lines and the gate failures.
func diff(base, fresh map[string]Benchmark, baseOrder []string, maxNs float64, gate string) (lines, failures []string) {
	for _, name := range baseOrder {
		b := base[name]
		gated := gatedBy(name, gate)
		f, ok := fresh[name]
		if !ok {
			if gated {
				failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from the fresh run", name))
			} else {
				lines = append(lines, fmt.Sprintf("  %-55s missing from fresh run (not gated)", name))
			}
			continue
		}
		if f.Procs != b.Procs {
			failures = append(failures, fmt.Sprintf("%s: ran at procs %d, baseline at procs %d (run `make bench`, which pins -cpu 1)", name, f.Procs, b.Procs))
			lines = append(lines, fmt.Sprintf("  %-55s procs %d → %d  [FAIL procs]", name, b.Procs, f.Procs))
			continue
		}
		bn, fn := b.Metrics["ns/op"], f.Metrics["ns/op"]
		var growth float64
		if bn > 0 {
			growth = fn/bn - 1
		}
		ba, fa := b.Metrics["allocs/op"], f.Metrics["allocs/op"]
		status := "ok"
		switch {
		case gated && fa > ba:
			status = "FAIL allocs"
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f → %.0f (any increase fails)", name, ba, fa))
		case gated && bn > 0 && growth > maxNs:
			status = "FAIL ns/op"
			failures = append(failures, fmt.Sprintf("%s: ns/op %.0f → %.0f (%+.1f%%, limit %+.0f%%)", name, bn, fn, 100*growth, 100*maxNs))
		case !gated:
			status = "info"
		}
		lines = append(lines, fmt.Sprintf("  %-55s ns/op %12.0f → %12.0f (%+6.1f%%)  allocs/op %4.0f → %4.0f  [%s]",
			name, bn, fn, 100*growth, ba, fa, status))
	}
	var added []string
	for name := range fresh {
		if _, ok := base[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		lines = append(lines, fmt.Sprintf("  %-55s new (no baseline; passes)", name))
	}
	return lines, failures
}

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-baseline FILE] [-max-ns-regress F] [-gate PREFIX] FRESH.json")
		os.Exit(2)
	}
	base, baseOrder, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, _, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	lines, failures := diff(base, fresh, baseOrder, *maxNsRegress, *gatePrefix)
	fmt.Printf("benchdiff: %s vs baseline %s (gate {%s}*, ns/op limit %+.0f%%)\n",
		flag.Arg(0), *baselinePath, *gatePrefix, 100**maxNsRegress)
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(failures) > 0 {
		fmt.Printf("\nbenchdiff: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Println("  " + f)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions")
}
