package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/assign"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

var update = flag.Bool("update", false, "rewrite testdata from the current run")

// TestGolden pins run's stdout byte for byte for directed and undirected
// cliques, lifetimes above and below n, and a non-default seed. After an
// intended output change regenerate with: go test ./cmd/tdiam -update
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"directed", []string{"-n", "64"}},
		{"undirected", []string{"-n", "64", "-trials", "5", "-undirected"}},
		{"lifetime-above-n", []string{"-n", "48", "-lifetime", "200", "-trials", "7"}},
		{"lifetime-below-n", []string{"-n", "64", "-lifetime", "16", "-trials", "4"}},
		{"seed9", []string{"-n", "128", "-seed", "9"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d: %s", tc.args, code, stderr.String())
			}
			path := filepath.Join("testdata", tc.name+".txt")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%v: output differs from %s:\n%s", tc.args, path, stdout.String())
			}
		})
	}
}

// TestFlagErrors pins the usage errors: exit code 2, a message naming the
// bad flag, and no output on stdout.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-lifetime", "-3"}, "lifetime >= 1"},
		{[]string{"-lifetime", "0"}, "lifetime >= 1"},
		{[]string{"-trials", "0"}, "trials >= 1"},
		{[]string{"-trials", "-2"}, "trials >= 1"},
		{[]string{"-n", "1"}, "n >= 2"},
		{[]string{"-bogus"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, want empty", tc.args, stdout.String())
		}
	}
}

// TestTinyInstances checks the printed statistics against
// DiameterFromSerial on the same two seeded instances.
func TestTinyInstances(t *testing.T) {
	const n, lifetime, seed = 6, 9, 4
	g := graph.Clique(n, true)
	sources := []int{0, 1, 2, 3, 4, 5}
	var maxes, means []float64
	for i := 0; i < 2; i++ {
		lab := assign.Uniform(g, lifetime, 1, rng.NewStream(seed, uint64(i)))
		res := temporal.DiameterFromSerial(temporal.MustNew(g, lifetime, lab), sources)
		if !res.AllReachable {
			t.Fatalf("instance %d: a clique with a label per arc must reach every pair", i)
		}
		maxes = append(maxes, float64(res.Max))
		means = append(means, res.MeanFinite)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-n", fmt.Sprint(n), "-lifetime", fmt.Sprint(lifetime), "-trials", "2", "-seed", fmt.Sprint(seed)}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		fmt.Sprintf("temporal diameter : mean %.2f ± ", (maxes[0]+maxes[1])/2),
		fmt.Sprintf(", min %.0f, max %.0f\n", min(maxes[0], maxes[1]), max(maxes[0], maxes[1])),
		fmt.Sprintf("mean temporal dist: %.2f\n", (means[0]+means[1])/2),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "unreachable") {
		t.Errorf("unexpected output:\n%s", out)
	}
}
