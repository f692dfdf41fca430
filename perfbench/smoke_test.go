package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// set-up and repeat modes re-run os.Executable with benchmark flags.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-workload" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runBench runs the benchmark in-process and returns its result line.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append(args, "-out", t.TempDir())
	code := run(context.Background(), args, &out, &errOut)
	if code != 0 {
		t.Fatalf("perfbench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r, out.String()
}

// checkMetrics asserts r carries exactly the metrics of defs, each with
// its unit, and that the run checked its outputs without a failure.
func checkMetrics(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("correct=%t attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at toy size")
	}
	for _, w := range []string{"paper", "sweep", "query"} {
		t.Run(w, func(t *testing.T) {
			r, out := runBench(t, "-workload", w, "-seconds", "1", "-toy", "-trace", "0")
			checkMetrics(t, r, endToEnd)
			for _, d := range endToEnd {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, r.Metrics[d.Name].Value)
				}
			}
			if !strings.Contains(out, `"host.steal_frac"`) || !strings.Contains(out, `"commit"`) {
				t.Errorf("no host record printed:\n%s", out)
			}

			r, out = runBench(t, "-workload", w, "-seconds", "1", "-toy", "-trace", "1")
			checkMetrics(t, r, perLayer)
			if !strings.Contains(out, "overhead: ") || !strings.Contains(out, "span dump: ") {
				t.Errorf("traced run printed no overhead or dump:\n%s", out)
			}
		})
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "paper", "-trace", "2"},
		{"-workload", "paper", "-seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which the
// repository root carries, in step with the metric tables here.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, want all of paper, sweep, query", names)
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, want %d and %d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, j, d)
		}
	}
	for i, d := range perLayer {
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, j, d)
		}
	}
}
