package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestFlagErrors pins the usage errors: exit code 2, a message naming the
// bad flag, and no output on stdout.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "-5"}, "trials >= 1"},
		{[]string{"-trials", "0"}, "trials >= 1"},
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

// TestSeededOutput checks the printed threshold and PoR interval against
// core.EstimateR and assign.OptBounds on the same family and seed.
func TestSeededOutput(t *testing.T) {
	const n, trials, seed = 8, 12, 3
	g := graph.Star(n)
	diam, _ := graph.Diameter(g)
	rhat, ok := core.EstimateR(g, n, core.WHPTarget(n), trials, seed, 8*core.TheoremSevenR(n, diam))
	if !ok {
		t.Fatal("the star's threshold search should converge")
	}
	lo, hi := assign.OptBounds(g)
	var stdout, stderr bytes.Buffer
	args := []string{"-family", "star", "-n", fmt.Sprint(n), "-trials", fmt.Sprint(trials), "-seed", fmt.Sprint(seed)}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		fmt.Sprintf("star: n=%d m=%d d=%d\n", n, g.M(), diam),
		fmt.Sprintf("estimated r(n)          : %d uniform labels/edge", rhat),
		fmt.Sprintf("deterministic OPT       : in [%d, %d]", lo, hi),
		fmt.Sprintf("Price of Randomness     : in [%.2f, %.2f]", core.PoR(g.M(), rhat, hi), core.PoR(g.M(), rhat, lo)),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN in output:\n%s", out)
	}
}
