package temporal

import "sync"

// ConnectedPrefix returns the least k ≥ 1 for which the edges carrying a
// label ≤ k form a connected spanning subgraph — strongly connected when
// the graph is directed — or Lifetime()+1 when even the whole labeling
// does not. No temporal diameter can be below it (the paper's Ω(log n)
// remark after Theorem 4). Graphs with fewer than two vertices answer 1.
//
// The answer comes from the label-sorted time-edge list without building a
// prefix graph: one label-ordered pass per direction grows the set of
// vertices vertex 0 reaches (and, if directed, the set that reaches vertex
// 0), and the label at which that set first spans every vertex is the
// direction's bottleneck; the larger of the two is k. Each pass stops
// there, so it reads only the time edges up to k. scratch may be nil
// (pooled scratch is used) or a *PrefixScratch reused across calls, which
// makes the call allocation-free.
func ConnectedPrefix(n *Network, scratch *PrefixScratch) int {
	nv := n.g.N()
	if nv < 2 {
		return 1
	}
	if scratch == nil {
		scratch = prefixPool.Get().(*PrefixScratch)
		defer prefixPool.Put(scratch)
	}
	n.ensureTimeEdges()
	k := n.prefixSpan(scratch, false)
	if n.g.Directed() && k <= int(n.lifetime) {
		k = max(k, n.prefixSpan(scratch, true))
	}
	return k
}

// PrefixScratch holds ConnectedPrefix's work arrays; it grows to the
// largest graph and prefix it has served.
type PrefixScratch struct {
	in    []bool
	head  []int32 // per vertex: its newest pending edge, or -1
	pend  []pendingEdge
	stack []int32
}

// pendingEdge is a scanned edge whose tail is not yet in the set: once the
// tail joins, so does to. next chains the tail's pending edges.
type pendingEdge struct{ to, next int32 }

var prefixPool = sync.Pool{New: func() any { return new(PrefixScratch) }}

// prefixSpan is one direction's pass over the time edges in label order.
// An edge out of the set (into it, when reverse) admits its far endpoint
// at the edge's label l; an edge whose tail is not in the set yet waits on
// the tail's pending list and is admitted when the tail joins. After the
// scan's label-l edges the set is exactly what edges carrying a label ≤ l
// connect to vertex 0. It returns the label at which the set spans the
// graph, or Lifetime()+1.
func (n *Network) prefixSpan(s *PrefixScratch, reverse bool) int {
	nv := n.g.N()
	if cap(s.in) < nv {
		s.in = make([]bool, nv)
		s.head = make([]int32, nv)
	}
	in, head := s.in[:nv], s.head[:nv]
	clear(in)
	for i := range head {
		head[i] = -1
	}
	s.pend = s.pend[:0]
	from, to := n.g.FromArray(), n.g.ToArray()
	if reverse {
		from, to = to, from
	}
	directed := n.g.Directed()
	in[0] = true
	count := 1
	for i, e := range n.teEdge {
		u, v := from[e], to[e]
		if !directed && in[v] {
			u, v = v, u
		}
		if in[v] {
			continue
		}
		if !in[u] {
			s.pend = append(s.pend, pendingEdge{v, head[u]})
			head[u] = int32(len(s.pend) - 1)
			if !directed {
				s.pend = append(s.pend, pendingEdge{u, head[v]})
				head[v] = int32(len(s.pend) - 1)
			}
			continue
		}
		count += s.admit(v)
		if count == nv {
			return int(n.teLabel[i])
		}
	}
	return int(n.lifetime) + 1
}

// admit adds v to the set, then everything pending behind it, and returns
// how many vertices joined.
func (s *PrefixScratch) admit(v int32) int {
	s.in[v] = true
	added := 1
	stack := append(s.stack[:0], v)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := s.head[w]; j >= 0; j = s.pend[j].next {
			if x := s.pend[j].to; !s.in[x] {
				s.in[x] = true
				added++
				stack = append(stack, x)
			}
		}
	}
	s.stack = stack
	return added
}
