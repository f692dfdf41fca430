package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// TestFlagErrors pins the usage errors: exit code 2, a message naming the
// bad flag, and no output on stdout.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-s", "3", "-t", "3"}, "distinct s, t in [0, n)"},
		{[]string{"-n", "1"}, "distinct s, t in [0, n)"},
		{[]string{"-n", "8", "-t", "8"}, "distinct s, t in [0, n)"},
		{[]string{"-s", "-1"}, "distinct s, t in [0, n)"},
		{[]string{"-c1", "-1"}, "c1 in [0, n]"},
		{[]string{"-c1", "NaN"}, "c1 in [0, n]"},
		{[]string{"-n", "8", "-c1", "9"}, "c1 in [0, n]"},
		{[]string{"-c2", "-2"}, "c2 in [0, n]"},
		{[]string{"-n", "8", "-c2", "9"}, "c2 in [0, n]"},
		{[]string{"-d", "-1"}, "d in [0, n]"},
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

// TestSeededOutput checks the printed journey against core.Expansion and
// the exact foremost arrival on the same seeded instance, and that a plan
// the lifetime cannot hold exits 1.
func TestSeededOutput(t *testing.T) {
	const n, s, tv, seed = 64, 5, 9, 3
	g := graph.Clique(n, true)
	net := temporal.MustNew(g, n, assign.NormalizedURTN(g, rng.New(seed)))
	res := core.Expansion(net, s, tv, core.ExpansionConfig{})
	if !res.Success {
		t.Fatalf("seed %d should succeed: %s", seed, res.Reason)
	}
	plan := core.PlanExpansion(n, core.ExpansionConfig{})
	var stdout, stderr bytes.Buffer
	args := []string{"-n", fmt.Sprint(n), "-s", fmt.Sprint(s), "-t", fmt.Sprint(tv), "-seed", fmt.Sprint(seed)}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{
		fmt.Sprintf("forward frontier sizes |Γ_i(s)| : %v\n", res.ForwardSizes),
		fmt.Sprintf("journey: %v\n", res.Journey),
		fmt.Sprintf("arrival: %d (plan bound %d)\n", res.Arrival, plan.Bound),
		fmt.Sprintf("exact foremost δ(s,t) = %d\n", net.EarliestArrivals(s)[tv]),
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}

	stdout.Reset()
	if code := run([]string{"-n", "2", "-c1", "2", "-c2", "2", "-d", "2"}, &stdout, &stderr); code != 1 {
		t.Fatalf("a plan past the lifetime: exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "FAILURE: window exceeds lifetime") {
		t.Errorf("output lacks the failure reason:\n%s", stdout.String())
	}
}
