//go:build amd64 && !purego

package rng

import "testing"

// TestSeedLanes checks the assembly jump against the reference jump: lane
// j of seedLanes starts where jumpBy takes the stream by x^(j·d) mod P.
func TestSeedLanes(t *testing.T) {
	if !haveLanes {
		t.Skip("the CPU lacks AVX-512F")
	}
	s := New(53)
	for _, d := range laneTableDs {
		var tab laneTable
		var st laneState
		fillLaneTable(d, &tab)
		seedLanes(s, &tab, &st)
		for j := 0; j < 8; j++ {
			got := Stream{st[0][j], st[1][j], st[2][j], st[3][j]}
			if want := jumpBy(*s, xPowMod(uint64(j)*d)); got != want {
				t.Fatalf("d=%d lane %d: seeded at %v, want %v", d, j, got, want)
			}
		}
	}
}
