package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/phonecall"
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
		{[]string{"-lifetime", "-3"}, "lifetime >= 1"},
		{[]string{"-n", "1"}, "n >= 2"},
		{[]string{"-n", "-4"}, "n >= 2"},
		{[]string{"-n", "8", "-source", "8"}, "source in [0, n)"},
		{[]string{"-source", "-1"}, "source in [0, n)"},
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

// TestSeededOutput checks both modes' printed figures against core.Spread
// and the phone-call baselines on the same seeded instance.
func TestSeededOutput(t *testing.T) {
	const n, lifetime, source, seed = 6, 9, 2, 4
	g := graph.Clique(n, true)
	net := temporal.MustNew(g, lifetime, assign.Uniform(g, lifetime, 1, rng.New(seed)))
	res := core.Spread(net, source)
	if !res.All {
		t.Fatal("seed 4 should inform every vertex; pick another seed")
	}
	gu := graph.Clique(n, false)
	push := phonecall.Push(gu, source, 0, rng.New(seed+1))
	pp := phonecall.PushPull(gu, source, 0, rng.New(seed+2))
	done := fmt.Sprintf("all %d vertices informed at t=%d ", n, res.CompletionTime)
	args := []string{"-n", fmt.Sprint(n), "-lifetime", fmt.Sprint(lifetime), "-source", fmt.Sprint(source), "-seed", fmt.Sprint(seed)}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{args, []string{
			done,
			fmt.Sprintf("protocol transmissions: %d total, %d useful (n² = %d)\n", res.Transmissions, res.UsefulTransmissions, n*n),
			fmt.Sprintf("push %d rounds / %d tx; push-pull %d rounds / %d tx\n", push.Rounds, push.Transmissions, pp.Rounds, pp.Transmissions),
			fmt.Sprintf("  %4d  %8d  ", res.CompletionTime, n),
		}},
		{append(args, "-summary"), []string{done}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, want, stdout.String())
			}
		}
	}
}
