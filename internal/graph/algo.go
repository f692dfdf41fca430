package graph

// BFS returns the hop distances from src; unreachable vertices get -1.
func BFS(g *Graph, src int) []int32 {
	dist := make([]int32, g.N())
	BFSInto(g, src, dist, make([]int32, 0, g.N()))
	return dist
}

// BFSInto is the allocation-free core of BFS: dist must have length g.N()
// and is overwritten; queue is scratch space (its contents are ignored).
// It returns the number of vertices reached, counting src.
func BFSInto(g *Graph, src int, dist []int32, queue []int32) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	reached := 1
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := dist[u] + 1
		for _, v := range g.OutNeighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = d
				queue = append(queue, v)
				reached++
			}
		}
	}
	return reached
}

// ConnectedComponents labels each vertex of an undirected graph with a
// component id in [0, count) and returns the labels and component count.
// It panics on directed graphs; use StronglyConnectedComponents there.
func ConnectedComponents(g *Graph) (comp []int32, count int) {
	if g.Directed() {
		panic("graph: ConnectedComponents requires an undirected graph")
	}
	comp = make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.OutNeighbors(int(u)) {
				if comp[v] < 0 {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
	}
	return comp, count
}

// IsConnected reports whether an undirected graph is connected (the empty
// graph counts as connected; a single vertex does too).
func IsConnected(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	if g.Directed() {
		panic("graph: IsConnected requires an undirected graph")
	}
	dist := make([]int32, g.N())
	return BFSInto(g, 0, dist, nil) == g.N()
}

// StronglyConnectedComponents computes SCC ids (0-based, in reverse
// topological order of the condensation) using an iterative Tarjan
// algorithm, and returns the labels and component count. Undirected graphs
// are accepted; their SCCs coincide with connected components.
func StronglyConnectedComponents(g *Graph) (comp []int32, count int) {
	n := g.N()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	next := int32(0)

	type frame struct {
		v   int32
		adj int32 // next adjacency offset to explore
	}
	var call []frame

	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		call = append(call[:0], frame{v: int32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			adj := g.OutNeighbors(int(v))
			advanced := false
			for int(f.adj) < len(adj) {
				w := adj[f.adj]
				f.adj++
				if index[w] < 0 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished: pop a component if v is a root.
			if low[v] == index[v] {
				id := int32(count)
				count++
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = id
					if w == v {
						break
					}
				}
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, count
}

// IsStronglyConnected reports whether every vertex can reach every other.
func IsStronglyConnected(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	_, count := StronglyConnectedComponents(g)
	return count == 1
}

// Diameter returns the hop diameter of g — the maximum eccentricity, one
// BFS per source — and whether the graph is connected (strongly connected
// when directed). When disconnected, the returned diameter is the maximum
// over reachable pairs only.
func Diameter(g *Graph) (diam int, connected bool) {
	n := g.N()
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	connected = true
	for s := 0; s < n; s++ {
		if BFSInto(g, s, dist, queue) < n {
			connected = false
		}
		for _, d := range dist {
			diam = max(diam, int(d))
		}
	}
	return diam, connected
}

// SpanningTree returns the edge ids of a BFS spanning tree rooted at vertex
// 0 of an undirected connected graph, in discovery order (n-1 edges). It
// panics on directed graphs and returns an incomplete forest's tree edges
// when disconnected.
func SpanningTree(g *Graph) []int {
	if g.Directed() {
		panic("graph: SpanningTree requires an undirected graph")
	}
	n := g.N()
	visited := make([]bool, n)
	var tree []int
	var queue []int32
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := int(queue[head])
			adj := g.OutNeighbors(u)
			eids := g.OutEdges(u)
			for i, v := range adj {
				if !visited[v] {
					visited[v] = true
					tree = append(tree, int(eids[i]))
					queue = append(queue, v)
				}
			}
		}
		if s == 0 && len(tree) == n-1 {
			break
		}
	}
	return tree
}
