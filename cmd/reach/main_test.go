package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestBuildFamily pins the size rounding of each family in the header
// line.
func TestBuildFamily(t *testing.T) {
	cases := []struct {
		family string
		n      int
		wantN  int
	}{
		{"star", 16, 16},
		{"path", 9, 9},
		{"cycle", 8, 8},
		{"grid", 10, 12}, // ⌈10/4⌉ = 3 rows × 4
		{"hypercube", 20, 16},
		{"bintree", 7, 7},
		{"clique", 5, 5},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		args := []string{"-family", c.family, "-n", fmt.Sprint(c.n), "-r", "1", "-trials", "1"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		if want := fmt.Sprintf("%s: n=%d ", c.family, c.wantN); !strings.HasPrefix(stdout.String(), want) {
			t.Errorf("%v: header %q, want prefix %q", args, stdout.String(), want)
		}
	}
}

// TestRateRun checks the fixed-r Monte-Carlo output, deterministic for a
// fixed seed, on a small star where r = 8 is ample.
func TestRateRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-family", "star", "-n", "32", "-r", "8", "-trials", "20", "-seed", "3"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("run → %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"star: n=32 m=31 diameter=2 lifetime=32",
		"Pr[Treach] with r=8:",
		"95% CI",
		"whp target 1-1/n = 0.9688",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Determinism: an identical invocation must render byte-identically.
	var again bytes.Buffer
	run([]string{"-family", "star", "-n", "32", "-r", "8", "-trials", "20", "-seed", "3"},
		&again, &stderr)
	if again.String() != out {
		t.Fatalf("same seed, different output:\n%s\nvs\n%s", out, again.String())
	}
}

// TestDefaultRUsesTheoremSeven: with -r 0 the tool must announce the
// Theorem 7 bound it substituted.
func TestDefaultRUsesTheoremSeven(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-family", "path", "-n", "8", "-trials", "4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run → %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "using Theorem 7's r = 2·d·ln n") {
		t.Fatalf("missing Theorem 7 line:\n%s", stdout.String())
	}
}

// TestEstimateRun drives the threshold search on a tiny instance.
func TestEstimateRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-family", "star", "-n", "16", "-estimate", "-trials", "10", "-seed", "2"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("run → %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"estimated r(n) at target", "Theorem 7 sufficient r", "r(n)/log₂ n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestEstimateSeededOutput checks the printed threshold, OPT bounds, PoR
// interval and Theorem 7 and 8 lines of -estimate against core.EstimateR
// and assign.OptBounds on the same family and seed.
func TestEstimateSeededOutput(t *testing.T) {
	const n, trials, seed = 8, 12, 3
	g := graph.Star(n)
	diam, _ := graph.Diameter(g)
	rhat, ok := core.EstimateR(g, n, core.WHPTarget(n), trials, seed, 8*core.TheoremSevenR(n, diam))
	if !ok {
		t.Fatal("the star's threshold search should converge")
	}
	lo, hi := assign.OptBounds(g)
	var stdout, stderr bytes.Buffer
	args := []string{"-family", "star", "-n", fmt.Sprint(n), "-estimate", "-trials", fmt.Sprint(trials), "-seed", fmt.Sprint(seed)}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		fmt.Sprintf("star: n=%d m=%d diameter=%d lifetime=%d\n", n, g.M(), diam, n),
		fmt.Sprintf("estimated r(n) at target %.4f: %d\n", core.WHPTarget(n), rhat),
		fmt.Sprintf("Theorem 7 sufficient r = 2·d·ln n = %d\n", core.TheoremSevenR(n, diam)),
		fmt.Sprintf("r(n)/log₂ n = %.2f\n", float64(rhat)/math.Log2(n)),
		fmt.Sprintf("deterministic OPT in [%d, %d] (exact)\n", lo, hi),
		fmt.Sprintf("Price of Randomness m·r(n)/OPT in [%.2f, %.2f]\n", core.PoR(g.M(), rhat, hi), core.PoR(g.M(), rhat, lo)),
		fmt.Sprintf("Theorem 8 PoR bound (2·d·ln n)·m/(n-1) = %.2f\n", core.TheoremEightPoRBound(n, g.M(), diam)),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN in output:\n%s", out)
	}
}

// TestFlagErrors pins the usage errors: exit code 2, a message naming the
// bad flag, and no output on stdout.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-r", "-3"}, "need r >= 0"},
		{[]string{"-trials", "-5"}, "need trials >= 1"},
		{[]string{"-trials", "0"}, "need trials >= 1"},
		{[]string{"-trials", "0", "-estimate"}, "need trials >= 1"},
		{[]string{"-n", "0"}, "star needs n >= 2"},
		{[]string{"-family", "path", "-n", "1"}, "path needs n >= 2"},
		{[]string{"-family", "cycle", "-n", "2"}, "cycle needs n >= 3"},
		{[]string{"-family", "grid", "-n", "0"}, "grid needs n >= 1"},
		{[]string{"-family", "hypercube", "-n", "1"}, "hypercube needs n >= 2"},
		{[]string{"-family", "hypercube", "-n", "4294967296"}, "hypercube needs n < 2^31"},
		{[]string{"-family", "bintree", "-n", "1"}, "bintree needs n >= 2"},
		{[]string{"-family", "clique", "-n", "1"}, "clique needs n >= 2"},
		{[]string{"-family", "mobius"}, `unknown family "mobius"`},
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

// TestEstimateFlagErrors pins the usage errors of -estimate: exit code 2,
// a message naming the bad flag, and no output on stdout.
func TestEstimateFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "-5"}, "need trials >= 1"},
		{[]string{"-trials", "0"}, "need trials >= 1"},
		{[]string{"-family", "star", "-n", "0"}, "star needs n >= 2"},
		{[]string{"-family", "path", "-n", "1"}, "path needs n >= 2"},
		{[]string{"-family", "cycle", "-n", "2"}, "cycle needs n >= 3"},
		{[]string{"-family", "grid", "-n", "0"}, "grid needs n >= 1"},
		{[]string{"-family", "hypercube", "-n", "1"}, "hypercube needs n >= 2"},
		{[]string{"-family", "hypercube", "-n", "4294967296"}, "hypercube needs n < 2^31"},
		{[]string{"-family", "bintree", "-n", "1"}, "bintree needs n >= 2"},
		{[]string{"-family", "torus"}, `unknown family "torus"`},
		{[]string{"-bogus"}, "flag provided but not defined"},
	} {
		args := append([]string{"-estimate"}, tc.args...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, want empty", args, stdout.String())
		}
	}
}
