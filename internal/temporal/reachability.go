package temporal

import (
	"math/bits"

	"repro/internal/graph"
)

// SatisfiesTreachSerial reports whether n has Treach, the
// reachability-preservation property of Definition 6: for every ordered
// pair (u,v), a static u→v path exists if and only if a (u,v)-journey
// exists. It runs the bit-parallel kernel — ⌈n/64⌉ word passes instead of
// n scalar ones — on the calling goroutine and returns on the first
// violated batch. scratch may be nil (pooled scratch is used) or a
// *TreachScratch reused across calls.
func SatisfiesTreachSerial(n *Network, scratch *TreachScratch) bool {
	nv := n.g.N()
	if nv == 0 {
		return true
	}
	sc := scratch.reach()
	if scratch == nil {
		defer reachPool.Put(sc)
	}
	for lo := 0; lo < nv; lo += batchSize {
		hi := lo + batchSize
		if hi > nv {
			hi = nv
		}
		if n.treachViolated(sc.batch(lo, hi), sc) {
			return false
		}
	}
	return true
}

// TreachScratch holds the per-batch work arrays for
// SatisfiesTreachSerial.
type TreachScratch struct {
	rs reachScratch
}

// NewTreachScratch allocates scratch for graphs of up to n vertices. The
// trial bodies pass nil (pooled scratch); BenchmarkKernelTreach and
// BenchmarkKernelTreachClique measure the reused-scratch path.
func NewTreachScratch(n int) *TreachScratch {
	s := &TreachScratch{}
	s.rs.ensure(n)
	return s
}

// reach returns the wrapped word scratch, drawing a pooled one for a nil
// receiver (the caller returns that one to the pool).
func (s *TreachScratch) reach() *reachScratch {
	if s == nil {
		return reachPool.Get().(*reachScratch)
	}
	return &s.rs
}

// StaticReach caches the substrate-only half of the Treach decision: the
// per-batch static-reachability words of a fixed graph. The static closure
// never changes when only the labels move, so the batched trial engine
// computes it once per substrate and asks each relabeled trial only the
// temporal question — on label-sparse instances the static BFS is a large
// share of a Treach check, and this removes it from the per-trial cost
// without changing any answer.
type StaticReach struct {
	g *graph.Graph
	// words[b][v] has bit j set exactly when source b·64+j statically
	// reaches v.
	words [][]uint64
}

// NewStaticReach precomputes the static words for every source batch of g.
func NewStaticReach(g *graph.Graph) *StaticReach {
	nv := g.N()
	sr := &StaticReach{g: g}
	sc := reachPool.Get().(*reachScratch)
	defer reachPool.Put(sc)
	for lo := 0; lo < nv; lo += batchSize {
		hi := lo + batchSize
		if hi > nv {
			hi = nv
		}
		staticReachWords(g, sc.batch(lo, hi), sc)
		sr.words = append(sr.words, append([]uint64(nil), sc.stat[:nv]...))
	}
	return sr
}

// SatisfiesTreachStatic is SatisfiesTreachSerial with the static half
// supplied by a StaticReach built for the network's substrate (it panics
// on a substrate mismatch — silently wrong answers would be worse). The
// answer is identical to SatisfiesTreachSerial; only the per-call cost
// changes.
func SatisfiesTreachStatic(n *Network, sr *StaticReach, scratch *TreachScratch) bool {
	if sr.g != n.g {
		panic("temporal: StaticReach built for a different substrate")
	}
	nv := n.g.N()
	if nv == 0 {
		return true
	}
	sc := scratch.reach()
	if scratch == nil {
		defer reachPool.Put(sc)
	}
	for b, lo := 0, 0; lo < nv; b, lo = b+1, lo+batchSize {
		hi := lo + batchSize
		if hi > nv {
			hi = nv
		}
		n.wordScan(sc.batch(lo, hi), sc, nil)
		stat := sr.words[b]
		for v := 0; v < nv; v++ {
			if stat[v]&^sc.cur[v] != 0 {
				return false
			}
		}
	}
	return true
}

// DiameterResult is the outcome of a temporal-diameter computation on one
// network instance.
type DiameterResult struct {
	// Max is the maximum finite temporal distance over the evaluated
	// source/target pairs (0 when no pair is reachable).
	Max int32
	// AllReachable reports whether every evaluated ordered pair (s,t) with
	// s != t has a journey. When false, the instance's temporal diameter is
	// effectively infinite and Max covers only the reachable pairs.
	AllReachable bool
	// MeanFinite is the mean temporal distance over reachable pairs.
	MeanFinite float64
	// Pairs is the number of ordered pairs evaluated (excluding s == t).
	Pairs int64
}

// diamAccum accumulates a DiameterResult in exact integers.
type diamAccum struct {
	max                int32
	sum, finite, pairs int64
}

// addBatch folds the earliest arrivals of up to 64 sources into p with one
// word scan: the bits staged in a label group are the pairs whose
// temporal distance is that label, so their popcount adds to the finite
// pairs and popcount × label to the sum, and the last group with arrivals
// bounds Max. No arrival row is ever written.
func (p *diamAccum) addBatch(n *Network, sources []int32, sc *reachScratch) {
	p.pairs += int64(len(sources)) * int64(n.g.N()-1)
	n.wordScan(sources, sc, func(label int32, dirty []int32, pend []uint64) {
		c := 0
		for _, v := range dirty {
			c += bits.OnesCount64(pend[v])
		}
		p.finite += int64(c)
		p.sum += int64(c) * int64(label)
		p.max = max(p.max, label)
	})
}

func (p *diamAccum) result() DiameterResult {
	res := DiameterResult{Max: p.max, AllReachable: p.finite == p.pairs, Pairs: p.pairs}
	if p.finite > 0 {
		res.MeanFinite = float64(p.sum) / float64(p.finite)
	}
	return res
}

// Diameter computes max_{s,t} δ(s,t) exactly from every source, 64
// sources per word pass.
func Diameter(n *Network) DiameterResult {
	sources := make([]int, n.g.N())
	for i := range sources {
		sources[i] = i
	}
	return DiameterFromSerial(n, sources)
}

// DiameterFromSerial computes the diameter restricted to the given source
// vertices (targets still range over all vertices), so a subset of the
// sources gives a lower bound on the full temporal diameter at a fraction
// of the cost. It runs on the calling goroutine, draws its work arrays
// from the pooled scratch layer and allocates nothing in steady state.
func DiameterFromSerial(n *Network, sources []int) DiameterResult {
	if n.g.N() == 0 || len(sources) == 0 {
		return DiameterResult{AllReachable: true}
	}
	sc := reachPool.Get().(*reachScratch)
	defer reachPool.Put(sc)
	var p diamAccum
	for lo := 0; lo < len(sources); lo += batchSize {
		p.addBatch(n, sc.pick(sources, lo), sc)
	}
	return p.result()
}
