package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/temporal"
)

// TestFlagErrors pins the usage errors: exit code 2, a message naming the
// bad value, and no output on stdout.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-1"}, "need n >= 1"},
		{[]string{"-n", "0"}, "need n >= 1"},
		{[]string{"-model", "geometric", "-n", "0"}, "need n >= 1"},
		{[]string{"-family", "hypercube", "-n", "0"}, "need n >= 1"},
		{[]string{"-r", "-2"}, "need r >= 1"},
		{[]string{"-r", "0"}, "need r >= 1"},
		{[]string{"-lifetime", "-5"}, "need lifetime >= 0"},
		{[]string{"-family", "cycle", "-n", "2"}, "cycle needs n >= 3"},
		{[]string{"-family", "gnp", "-p", "2"}, "gnp needs p in [0,1]"},
		{[]string{"-family", "regular", "-deg", "-1"}, "regular needs 0 <= deg < n"},
		{[]string{"-family", "regular", "-n", "4"}, "regular needs 0 <= deg < n"},
		{[]string{"-family", "mobius"}, `unknown family "mobius"`},
		{[]string{"-model", "nope"}, `unknown model "nope"`},
		{[]string{"-mp", "pi"}, `bad knob "pi"`},
		{[]string{"-model", "markov", "-mp", "pi=2"}, "markov needs pi in (0,1)"},
		{[]string{"-lawparam", "3"}, `-lawparam is meaningless for law "uniform"`},
		{[]string{"-model", "geom", "-lawparam", "0.3"}, "-lawparam applies to -law only"},
		{[]string{"-model", "markov", "-law", "zipf", "-lawparam", "2"}, "-lawparam applies to -law only"},
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

// TestHeaderMatchesNetwork decodes the printed network and checks that the
// comment header reports its size, edge count and lifetime, for the
// default lifetime (the realized vertex count), an explicit one, and a
// scenario model.
func TestHeaderMatchesNetwork(t *testing.T) {
	for _, args := range [][]string{
		{"-family", "hypercube", "-n", "20", "-seed", "3"},
		{"-family", "star", "-n", "9", "-lifetime", "30", "-r", "2", "-seed", "4"},
		{"-model", "markov", "-mp", "pi=0.2,runlen=3", "-family", "grid", "-n", "10", "-seed", "5"},
		{"-model", "geometric", "-n", "12", "-seed", "6"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		header, body, _ := strings.Cut(stdout.String(), "\n")
		net, err := temporal.Decode(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%v: decode: %v", args, err)
		}
		want := fmt.Sprintf(" n=%d m=%d lifetime=%d ", net.Graph().N(), net.Graph().M(), net.Lifetime())
		if !strings.HasPrefix(header, "# family=") || !strings.Contains(header, want) {
			t.Errorf("%v: header %q lacks %q", args, header, want)
		}
	}
}

// TestHeaderBudget checks that the header reports r only for the i.i.d.
// laws, which draw r labels per edge: for any other model -r changes no
// byte of the output.
func TestHeaderBudget(t *testing.T) {
	gen := func(args ...string) (string, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		header, body, _ := strings.Cut(stdout.String(), "\n")
		return header, body
	}
	for _, args := range [][]string{
		{"-law", "geom", "-lawparam", "0.3", "-family", "path", "-n", "6"},
		{"-model", "zipf", "-family", "star", "-n", "7"},
	} {
		if header, _ := gen(append(args, "-r", "3")...); !strings.Contains(header, " r=3 ") {
			t.Errorf("%v -r 3: header %q lacks r=3", args, header)
		}
	}
	for _, args := range [][]string{
		{"-model", "markov", "-mp", "pi=0.2,runlen=2", "-family", "path", "-n", "6"},
		{"-model", "pt-burst", "-n", "8"},
		{"-model", "geometric", "-n", "12"},
	} {
		h1, b1 := gen(append(args, "-r", "1")...)
		h3, b3 := gen(append(args, "-r", "3")...)
		if strings.Contains(h3, " r=") || h1 != h3 || b1 != b3 {
			t.Errorf("%v: -r 1 and -r 3 differ or print r:\n%s\n%s", args, h1, h3)
		}
	}
}
