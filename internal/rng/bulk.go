package rng

// minLaneWords is the smallest labeling, in words drawn, that the 8-lane
// kernels take: below it the jump to the lanes' start states costs more
// than the lanes save (see the package doc for the measurement).
const minLaneWords = 1024

// AppendSchedules draws a labeling of len(off)−1 edges, one p(t) schedule
// per edge, and returns the extended dst. It is the bulk form of
//
//	for e := 0; e+1 < len(off); e++ {
//		dst = r.appendSchedule(dst, coins)
//		off[e+1] = int32(len(dst))
//	}
//
// and leaves the same labels, offsets and stream state as that loop. When
// the 8-lane kernels are built, every coin draws and the labeling is big
// enough, the first 8·⌊m/8⌋ edges run in 8 lanes and the per-edge loop
// draws the rest.
func (r *Stream) AppendSchedules(dst, off []int32, coins []Coin) []int32 {
	m, e := len(off)-1, 0
	if haveLanes && m >= 8 && m*len(coins) >= minLaneWords && allDraw(coins) {
		dst, e = r.scheduleLanes(dst, off, coins)
	}
	for ; e < m; e++ {
		dst = r.appendSchedule(dst, coins)
		off[e+1] = int32(len(dst))
	}
	return dst
}

// AppendChains draws a labeling of len(off)−1 edges, one a-slot on/off
// chain per edge, and returns the extended dst. It is the bulk form of
//
//	for e := 0; e+1 < len(off); e++ {
//		dst = r.appendChain(dst, a, start, leave, enter)
//		off[e+1] = int32(len(dst))
//	}
//
// and leaves the same labels, offsets and stream state as that loop. When
// the 8-lane kernels are built, both transition coins draw, so that every
// edge draws the same number of words, and the labeling is big enough,
// the first 8·⌊m/8⌋ edges run in 8 lanes and the per-edge loop draws the
// rest.
func (r *Stream) AppendChains(dst, off []int32, a int, start, leave, enter Coin) []int32 {
	m, e := len(off)-1, 0
	w := a - 1 // words per edge: the transitions, and the start flip if it draws
	if start.draw {
		w++
	}
	if haveLanes && m >= 8 && m*w >= minLaneWords && leave.draw && enter.draw {
		dst, e = r.chainLanes(dst, off, a, w, start, leave, enter)
	}
	for ; e < m; e++ {
		dst = r.appendChain(dst, a, start, leave, enter)
		off[e+1] = int32(len(dst))
	}
	return dst
}

func allDraw(coins []Coin) bool {
	for _, c := range coins {
		if !c.draw {
			return false
		}
	}
	return true
}
