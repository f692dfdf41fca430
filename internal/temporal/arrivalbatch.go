package temporal

// The batch earliest-arrival kernel: the bit-parallel reachability pass
// (msreach.go) with a label-group hook that records, for every vertex, the
// label at which each source's bit first lands there — which is exactly
// that source's earliest arrival time. One scan of the label-sorted
// time-edge list fills up to 64 arrival rows, so an all-pairs arrival
// table costs ⌈n/64⌉ passes instead of n frontier runs. ArrivalGroups
// exposes the hook itself, so internal/qindex stamps its precomputed
// table in its own entry format without scratch rows. The rows are
// pinned bit-identical to the frontier kernel and the linear oracle by
// differential tests.

import "math/bits"

// ArrivalGroups runs one bit-parallel pass from up to 64 sources and calls
// onGroup once per label group that lands new arrivals, in increasing
// label order. For every v in dirty, pend[v] has bit j set exactly when
// label is the earliest arrival time of a journey from sources[j] to v.
// A source's own vertex (arrival 0) is never reported, and a (source,
// vertex) pair that no call reports has no journey. dirty and pend are
// pooled scratch, valid only during the call; onGroup must not retain
// them. The call allocates nothing beyond that scratch and is safe to run
// concurrently with other queries.
func (n *Network) ArrivalGroups(sources []int32, onGroup func(label int32, dirty []int32, pend []uint64)) {
	if len(sources) == 0 {
		return
	}
	if len(sources) > batchSize {
		panic("temporal: ArrivalGroups wants at most 64 sources")
	}
	sc := reachPool.Get().(*reachScratch)
	defer reachPool.Put(sc)
	n.wordScan(sources, sc, onGroup)
}

// ArrivalRowsBatch fills rows[j] with δ(sources[j], ·) for up to 64
// sources in one bit-parallel pass: rows[j][v] is the earliest arrival
// time of a journey from sources[j] to v, 0 at the source itself and
// Unreachable where no journey lands. Each rows[j] must have length N().
// It is ArrivalGroups stamping int32 rows: it allocates nothing beyond
// pooled scratch and is safe to run concurrently with other queries.
func (n *Network) ArrivalRowsBatch(sources []int32, rows [][]int32) {
	if len(sources) == 0 {
		return
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
	n.ArrivalGroups(sources, func(label int32, dirty []int32, pend []uint64) {
		for _, v := range dirty {
			for b := pend[v]; b != 0; b &= b - 1 {
				rows[bits.TrailingZeros64(b)][v] = label
			}
		}
	})
}
