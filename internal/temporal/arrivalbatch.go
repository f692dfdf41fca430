package temporal

// The batch earliest-arrival kernel: the bit-parallel reachability pass
// (msreach.go) with a label-group hook that records, for every vertex, the
// label at which each source's bit first lands there — which is exactly
// that source's earliest arrival time. One scan of the label-sorted
// time-edge list fills up to 64 arrival rows, so an all-pairs arrival
// table costs ⌈n/64⌉ passes instead of n frontier runs. internal/qindex
// builds its precomputed per-source index on this kernel. The rows are
// pinned bit-identical to the frontier kernel and the linear oracle by
// differential tests.

import "math/bits"

// ArrivalRowsBatch fills rows[j] with δ(sources[j], ·) for up to 64
// sources in one bit-parallel pass: rows[j][v] is the earliest arrival
// time of a journey from sources[j] to v, 0 at the source itself and
// Unreachable where no journey lands. Each rows[j] must have length N().
// The call allocates nothing beyond pooled scratch and is safe to run
// concurrently with other queries.
func (n *Network) ArrivalRowsBatch(sources []int32, rows [][]int32) {
	if len(sources) == 0 {
		return
	}
	if len(sources) > batchSize {
		panic("temporal: ArrivalRowsBatch wants at most 64 sources")
	}
	if len(rows) < len(sources) {
		panic("temporal: ArrivalRowsBatch needs one row per source")
	}
	nv := n.g.N()
	for j, s := range sources {
		row := rows[j]
		_ = row[nv-1]
		fillUnreachable(row)
		row[s] = 0
	}
	sc := reachPool.Get().(*reachScratch)
	defer reachPool.Put(sc)
	n.wordScan(sources, sc, func(label int32, dirty []int32, pend []uint64) {
		for _, v := range dirty {
			for b := pend[v]; b != 0; b &= b - 1 {
				rows[bits.TrailingZeros64(b)][v] = label
			}
		}
	})
}
