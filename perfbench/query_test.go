package main

import (
	"bytes"
	"testing"

	"repro/internal/qindex"
	"repro/internal/temporal"
)

// TestOracleMatchesIndex compares the benchmark's oracle with the
// serving index on small networks, for the unrestricted start and for
// late starts (which the full index recomputes on the frontier kernel).
func TestOracleMatchesIndex(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		enc, err := queryNetwork(seed, 48)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := temporal.Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		n := nw.Graph().N()
		ix := qindex.New(nw, qindex.Options{Mode: qindex.ModeFull})
		o := newOracle(nw)
		arr := make([]int32, n)
		reached := 0
		for _, start := range []int32{1, 2, 5, int32(nw.Lifetime() / 3), int32(nw.Lifetime())} {
			for src := 0; src < n; src++ {
				o.row(src, start, arr)
				for dst := 0; dst < n; dst++ {
					if got := ix.Arrival(src, dst, start); got != arr[dst] {
						t.Fatalf("seed %d start %d: %d→%d index %d, oracle %d", seed, start, src, dst, got, arr[dst])
					}
					if src != dst && arr[dst] != temporal.Unreachable {
						reached++
					}
				}
			}
		}
		if reached == 0 {
			t.Fatalf("seed %d: no pair reachable; the comparison checks nothing", seed)
		}
	}
}

// TestOracleLateStartByHand checks the late-start scan on a path whose
// answers are known: 0 –(3)– 1 –(5)– 2 –(4)– 3.
func TestOracleLateStartByHand(t *testing.T) {
	enc := "tnet 1 undirected 4 3 6\n0 1 3\n1 2 5\n2 3 4\n"
	nw, err := temporal.Decode(bytes.NewReader([]byte(enc)))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(nw)
	arr := make([]int32, 4)
	u := temporal.Unreachable
	for _, c := range []struct {
		src   int
		start int32
		want  []int32
	}{
		{0, 1, []int32{0, 3, 5, u}},
		{0, 4, []int32{0, u, u, u}},
		{3, 2, []int32{u, 5, 4, 0}},
		{1, 4, []int32{u, 0, 5, u}},
	} {
		o.row(c.src, c.start, arr)
		for v := range arr {
			if arr[v] != c.want[v] {
				t.Errorf("src %d start %d: arrivals %v, want %v", c.src, c.start, arr, c.want)
				break
			}
		}
	}
}
