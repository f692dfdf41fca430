//go:build amd64 && !purego

package rng

import (
	"slices"
	"sync"
)

// haveLanes reports that the CPU and the OS support AVX-512F: the 8-lane
// kernels in lanes_amd64.s need its ZMM registers and opmasks, and the OS
// must save their state on a context switch. The label expansion also
// counts bits with POPCNT, which every AVX-512 CPU has; it is checked all
// the same.
var haveLanes = hasAVX512F()

func hasAVX512F() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	// OSXSAVE (bit 27): XGETBV is usable; POPCNT (bit 23).
	if _, _, c, _ := cpuid(1, 0); c&(1<<27) == 0 || c&(1<<23) == 0 {
		return false
	}
	// XCR0 must enable the SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM states.
	if lo, _ := xgetbv(); lo&0xe6 != 0xe6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv() (lo, hi uint32)

// laneState is 8 xoshiro256** states in lane order, one ZMM register per
// state word: laneState[k][j] is word k of lane j.
type laneState [4][8]uint64

// chainCuts are a chain's coin cuts shifted left by 11, so that a word x
// comes up heads when x < cut, and how the start coin flips.
type chainCuts struct {
	start, leave, enter uint64
	startDraws          uint64 // 1 when the start coin draws a word
	startOn             uint64 // 0xff when a start coin that draws nothing comes up heads, else 0
}

// seedLanes sets st to the 8 lanes' start states: lane j starts at the
// XOR of T^i·s over the entries i of tab with bit j set.
//
//go:noescape
func seedLanes(s *Stream, tab *laneTable, st *laneState)

// scheduleBlock draws edges schedules of a slots on every lane, coin i
// heads when the word falls below cuts[i]. For each edge and each chunk
// of 64 slots it stores one word per lane, lane j's at index j: bit b of
// chunk c is set when slot 64c+b+1 comes up heads.
//
//go:noescape
func scheduleBlock(st *laneState, cuts *uint64, a, edges int, out *uint64)

// chainBlock draws edges chains of a slots on every lane, with
// scheduleBlock's output layout: bit b of chunk c is set when the chain
// is on at slot 64c+b+1.
//
//go:noescape
func chainBlock(st *laneState, ch *chainCuts, a, edges int, out *uint64)

// expandBlock writes the labels of lane lane's edges in a block of
// bitmaps to out and returns their number; last is the number of 16-slot
// pieces of an edge's last chunk that hold slots. After edge e it stores
// base plus the number of labels so far in off[e]. It writes whole
// pieces, so out needs room for 16 labels past the last.
//
//go:noescape
func expandBlock(out, off *int32, bitmaps *uint64, lane, chunks, last, edges, base int) int

// laneScratch is one draw's working memory, pooled so that a labeling
// after the first allocates nothing.
type laneScratch struct {
	st    laneState
	tab   laneTable
	cuts  []uint64
	bits  []uint64   // one block of bitmaps
	lanes [8][]int32 // each lane's labels, until every lane is done
}

var scratchPool = sync.Pool{New: func() any { return new(laneScratch) }}

// blockWords bounds one block's bitmaps at 4 KiB, so they stay in the L1
// cache between the kernel that writes them and the expansion that reads
// them. It also bounds a block's labels per lane, n·a ≤ 8·blockWords,
// and with them the room a lane's buffer keeps past its labels.
const blockWords = 512

// scheduleLanes draws the schedules of the first 8·⌊m/8⌋ edges of a
// labeling in 8 lanes, with every coin drawing, and returns the extended
// dst and the number of edges drawn. r ends at lane 7's final state.
func (r *Stream) scheduleLanes(dst, off []int32, coins []Coin) ([]int32, int) {
	return r.drawLanes(dst, off, len(coins), len(coins), coins, nil)
}

// chainLanes is scheduleLanes for chains of a slots and w words per edge
// whose transition coins both draw.
func (r *Stream) chainLanes(dst, off []int32, a, w int, start, leave, enter Coin) ([]int32, int) {
	ch := chainCuts{start: start.cut << 11, leave: leave.cut << 11, enter: enter.cut << 11}
	if start.draw {
		ch.startDraws = 1
	} else if start.cut != 0 {
		ch.startOn = 0xff
	}
	return r.drawLanes(dst, off, a, w, nil, &ch)
}

// drawLanes runs the lanes for a labeling of len(off)−1 edges, a slots
// and w words per edge: lane j draws edges [jE, (j+1)E) for
// E = ⌊m/8⌋, from the state jE·w words ahead of r. It draws chains when
// ch is set and the schedule coins otherwise. Each lane's labels gather
// in a pooled buffer, with offsets from the lane's start, until every
// lane is done; then they are appended to dst in lane order.
func (r *Stream) drawLanes(dst, off []int32, a, w int, coins []Coin, ch *chainCuts) ([]int32, int) {
	sc := scratchPool.Get().(*laneScratch)
	defer scratchPool.Put(sc)
	if ch == nil {
		sc.cuts = slices.Grow(sc.cuts[:0], a)[:a]
		for i, c := range coins {
			sc.cuts[i] = c.cut << 11
		}
	}
	edges := (len(off) - 1) / 8
	lookupLaneTable(uint64(edges)*uint64(w), &sc.tab)
	seedLanes(r, &sc.tab, &sc.st)
	chunks := (a + 63) / 64
	block := max(1, blockWords/(8*chunks))
	sc.bits = slices.Grow(sc.bits[:0], 8*chunks*block)[:8*chunks*block]
	for j := range sc.lanes {
		sc.lanes[j] = sc.lanes[j][:0]
	}
	for e0 := 0; e0 < edges; e0 += block {
		n := min(block, edges-e0)
		if ch != nil {
			chainBlock(&sc.st, ch, a, n, &sc.bits[0])
		} else {
			scheduleBlock(&sc.st, &sc.cuts[0], a, n, &sc.bits[0])
		}
		for j, l := range sc.lanes {
			// At most n·a labels, and room for the last piece's store.
			k := len(l)
			l = slices.Grow(l, n*a+16)[:k+n*a+16]
			k += expandBlock(&l[k], &off[1+j*edges+e0], &sc.bits[0], j, chunks, (a-1)%64/16+1, n, k)
			sc.lanes[j] = l[:k]
		}
	}
	total := 0
	for _, l := range sc.lanes {
		total += len(l)
	}
	dst = slices.Grow(dst, total)
	for j, l := range sc.lanes {
		base := int32(len(dst))
		dst = append(dst, l...)
		for i := 1 + j*edges; i <= (j+1)*edges; i++ {
			off[i] += base
		}
	}
	r.s0, r.s1, r.s2, r.s3 = sc.st[0][7], sc.st[1][7], sc.st[2][7], sc.st[3][7]
	return dst, 8 * edges
}
