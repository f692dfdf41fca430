package avail

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// Geometric is the dynamic random geometric graph scenario: n points start
// uniform on the unit torus [0,1)² and do independent random walks (per-slot
// displacement uniform in [-step, step]², wrapped); the edge {u,v} is live
// at label t exactly when the torus distance between u and v is at most the
// radius. Because the uniform law is stationary for the wrapped walk, the
// per-slot live probability of any fixed pair is the disc area π·radius²
// at every t — the quantity the conformance suite tests — while successive
// slots are strongly correlated through the motion, the regime of the
// Díaz–Mitsche–Pérez dynamic random geometric graphs.
//
// As a Scenario its Generate builds the support graph of every pair that is
// ever live; Assign labels an explicit substrate instead, gating each of
// its edges by the same mobility. As an IncrementalScenario it also hands
// batch engines a reusable per-worker trial state (NewScenarioState) that
// redraws whole trials into retained buffers — persistent grid buckets,
// packed time-edge events, canonical edge list — bit-identical to Generate.
type Geometric struct {
	a      int
	radius float64 // 0 = auto: 1.5·sqrt(ln n/(π·n)) at build time
	step   float64
}

// NewGeometric builds the scenario. radius 0 selects the automatic value
// 1.5·sqrt(ln n/(π·n)) — 1.5× the static connectivity threshold — once n is
// known; explicit radii must lie in (0, 0.5) so the torus disc area formula
// π·r² holds. step is the per-coordinate half-range of one displacement.
func NewGeometric(a int, radius, step float64) (Geometric, error) {
	if a < 1 {
		return Geometric{}, fmt.Errorf("geometric needs lifetime >= 1, got %d", a)
	}
	if radius != 0 && !(radius > 0 && radius < 0.5) {
		return Geometric{}, fmt.Errorf("geometric needs radius in (0,0.5) or 0=auto, got %v", radius)
	}
	if !(step > 0 && step <= 0.5) {
		return Geometric{}, fmt.Errorf("geometric needs step in (0,0.5], got %v", step)
	}
	return Geometric{a: a, radius: radius, step: step}, nil
}

func (m Geometric) Name() string {
	r := "auto"
	if m.radius > 0 {
		r = fmt.Sprintf("%.3g", m.radius)
	}
	return fmt.Sprintf("geometric(r=%s,step=%.3g)", r, m.step)
}

func (m Geometric) Lifetime() int { return m.a }

// Radius resolves the live radius for an n-point instance.
func (m Geometric) Radius(n int) float64 {
	if m.radius > 0 {
		return m.radius
	}
	if n < 2 {
		return 0.25
	}
	r := 1.5 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
	return math.Min(r, 0.49)
}

// walk holds the evolving point positions.
type walk struct {
	xs, ys []float64
	step   float64
}

func newWalk(n int, step float64, stream *rng.Stream) *walk {
	w := &walk{xs: make([]float64, n), ys: make([]float64, n), step: step}
	for i := 0; i < n; i++ {
		w.xs[i] = stream.Float64()
		w.ys[i] = stream.Float64()
	}
	return w
}

// advance moves every point one slot, drawing 2n uniforms in vertex order.
func (w *walk) advance(stream *rng.Stream) {
	for i := range w.xs {
		w.xs[i] = wrap01(w.xs[i] + (2*stream.Float64()-1)*w.step)
		w.ys[i] = wrap01(w.ys[i] + (2*stream.Float64()-1)*w.step)
	}
}

func wrap01(x float64) float64 {
	x = math.Mod(x, 1)
	if x < 0 {
		x++
	}
	return x
}

// dist2 is the squared torus distance between points i and j.
func (w *walk) dist2(i, j int) float64 { return torusDist2(w.xs, w.ys, i, j) }

func torusDist2(xs, ys []float64, i, j int) float64 {
	dx := math.Abs(xs[i] - xs[j])
	if dx > 0.5 {
		dx = 1 - dx
	}
	dy := math.Abs(ys[i] - ys[j])
	if dy > 0.5 {
		dy = 1 - dy
	}
	return dx*dx + dy*dy
}

// Assign gates the edges of an explicit substrate by the mobility: edge e
// carries label t iff its endpoints are within the radius at slot t. Edges
// whose endpoints never meet receive empty label sets.
func (m Geometric) Assign(g *graph.Graph, stream *rng.Stream) temporal.Labeling {
	n := g.N()
	r := m.Radius(n)
	r2 := r * r
	w := newWalk(n, m.step, stream)
	sets := make([][]int, g.M())
	for t := 1; t <= m.a; t++ {
		for e := 0; e < g.M(); e++ {
			u, v := g.Endpoints(e)
			if w.dist2(u, v) <= r2 {
				sets[e] = append(sets[e], t)
			}
		}
		if t < m.a {
			w.advance(stream)
		}
	}
	return temporal.LabelingFromSets(sets)
}

// Generate runs the walk and returns the support graph of every pair that
// is ever live, labeled with its live slots. Edges come out in canonical
// order (from < to, lexicographically ascending). This is the simple
// map-accumulating reference implementation, kept deliberately independent
// of the packed-event engine batched trials run on (NewScenarioState): the
// differential tests pin the engine bit-identical to this path, which only
// works as evidence while the two stay separate implementations.
func (m Geometric) Generate(n int, stream *rng.Stream) (*graph.Graph, temporal.Labeling) {
	if n < 0 {
		panic("avail: geometric Generate with negative n")
	}
	return m.generateMap(n, stream)
}

// NewScenarioState returns the reusable per-worker trial state for n
// points, or nil when the packed-event representation cannot cover n×n
// pair keys times the lifetime (engines then fall back to Generate per
// trial). This is the avail.IncrementalScenario entry point.
func (m Geometric) NewScenarioState(n int) ScenarioState {
	st := m.newState(n)
	if st == nil {
		return nil
	}
	return st
}

// geomState is the incremental trial engine. Everything a trial needs is
// retained: the point coordinates, the torus grid buckets (kept consistent
// across steps by delta cell moves instead of being rebuilt), the packed
// time-edge event buffer, and the output edge list + labeling. After the
// first trial at a stable size, Resample allocates nothing.
type geomState struct {
	geo   Geometric
	n     int
	r2    float64
	cells int    // grid side; 0 = brute-force pair scan per step
	aP1   uint64 // lifetime+1, the packed-event time radix

	xs, ys []float64

	// Grid state (cells > 0): cell[i] is point i's current cell, buckets
	// the members of each cell. advance moves points between buckets only
	// when their cell actually changes — most steps move only a fraction of
	// points across cell borders, and no per-step allocation or O(cells²)
	// reset happens either way. occ lists the occupied cells in no
	// particular order and occAt[c] is occupied cell c's index in occ, so
	// scanGrid visits at most n cells however fine the grid, and a cell
	// joins or leaves the list in O(1).
	cell    []int32
	buckets [][]int32
	occ     []int32
	occAt   []int32

	// events collects one packed word per (pair, slot) liveness:
	// (u·n+v)·(a+1)+t with u < v. The scan emits them t-major, so a stable
	// counting sort keyed by pair (groupCounting, when counts is non-nil)
	// puts them in canonical edge order with ascending labels inside each
	// edge without comparison-sorting the whole buffer; states too large
	// for a per-pair cursor array sort the events instead (group).
	events []uint64

	// counts/touched are the counting-sort cursors: counts is indexed by
	// pair key u·n+v (zero outside a trial), touched lists the keys hit
	// this trial so resetting is O(edges), not O(n²).
	counts  []int32
	touched []int32

	from, to []int32
	lab      temporal.Labeling
}

// countingMaxKeys bounds the pair-key space (n²) the counting-sort path
// allocates a cursor array for — 2²⁰ int32 cursors is 4 MiB per state,
// i.e. per batch worker. Larger states comparison-sort the events.
const countingMaxKeys = 1 << 20

// newState builds the engine, or returns nil when n²·(a+1) would overflow
// the packed-event word.
func (m Geometric) newState(n int) *geomState {
	if n < 0 {
		panic("avail: geometric state with negative n")
	}
	if float64(n)*float64(n)*float64(m.a+1) > float64(uint64(1)<<62) {
		return nil
	}
	r := m.Radius(n)
	s := &geomState{
		geo: m, n: n, r2: r * r, aP1: uint64(m.a) + 1,
		xs: make([]float64, n), ys: make([]float64, n),
	}
	// Same guard as the original generator: a grid pays off only when it
	// is at least 4×4 and there are enough points to spread over it.
	if cells := int(math.Floor(1 / r)); cells >= 4 && n >= 16 {
		s.cells = cells
		s.buckets = make([][]int32, cells*cells)
		// One allocation backs cell, occAt and occ, whose length never
		// exceeds the number of points or cells.
		nc := cells * cells
		grid := make([]int32, n+nc+min(n, nc))
		s.cell, s.occAt, s.occ = grid[:n:n], grid[n:n+nc:n+nc], grid[n+nc:n+nc]
	}
	if nk := n * n; nk > 0 && nk <= countingMaxKeys {
		s.counts = make([]int32, nk)
	}
	return s
}

// Resample redraws one full trial: identical stream consumption to the
// walk in Generate/Assign (init draws x,y per point, each advance draws
// x,y per point, a−1 advances), identical pair set, identical canonical
// output order. Implements avail.ScenarioState.
func (s *geomState) Resample(stream *rng.Stream) ([]int32, []int32, temporal.Labeling) {
	n := s.n
	for i := 0; i < n; i++ {
		s.xs[i] = stream.Float64()
		s.ys[i] = stream.Float64()
	}
	if s.cells > 0 {
		for _, c := range s.occ {
			s.buckets[c] = s.buckets[c][:0]
		}
		s.occ = s.occ[:0]
		for i := 0; i < n; i++ {
			c := s.cellIndex(i)
			s.cell[i] = c
			s.join(c, i)
		}
	}
	s.events = s.events[:0]
	a := s.geo.a
	for t := 1; t <= a; t++ {
		if s.cells > 0 {
			s.scanGrid(t)
		} else {
			s.scanBrute(t)
		}
		if t < a {
			s.advance(stream)
		}
	}
	if s.counts != nil {
		return s.groupCounting()
	}
	slices.Sort(s.events)
	return s.group()
}

// advance moves every point one slot (drawing uniforms in exactly the
// walk.advance order) and migrates the points whose grid cell changed.
func (s *geomState) advance(stream *rng.Stream) {
	step := s.geo.step
	for i := range s.xs {
		s.xs[i] = wrapStep(s.xs[i] + (2*stream.Float64()-1)*step)
		s.ys[i] = wrapStep(s.ys[i] + (2*stream.Float64()-1)*step)
		if s.cells == 0 {
			continue
		}
		c := s.cellIndex(i)
		if old := s.cell[i]; c != old {
			s.leave(old, i)
			s.cell[i] = c
			s.join(c, i)
		}
	}
}

// wrapStep is wrap01 for a coordinate in [0,1] moved by at most 0.5, so
// for a value in [−0.5, 1.5]. One add or subtract of 1 wraps it, with the
// same rounding as wrap01: math.Mod(x, 1) returns x itself for |x| < 1
// and the exact x−1 for x in [1, 2), and wrap01 then adds 1 to a negative
// x, as here. The reference walk keeps wrap01, so the engine and Generate
// stay independent implementations.
func wrapStep(x float64) float64 {
	if x < 0 {
		return x + 1
	}
	if x >= 1 {
		return x - 1
	}
	return x
}

// join adds point i to cell c, listing c as occupied if it was empty.
func (s *geomState) join(c int32, i int) {
	if len(s.buckets[c]) == 0 {
		s.occAt[c] = int32(len(s.occ))
		s.occ = append(s.occ, c)
	}
	s.buckets[c] = append(s.buckets[c], int32(i))
}

// leave removes point i from cell c and unlists c once it is empty. Both
// removals are swap-removes; the bucket one follows a linear scan, as
// buckets hold a few points each by construction (cell side ≥ radius).
func (s *geomState) leave(c int32, i int) {
	b := s.buckets[c]
	for k, p := range b {
		if p == int32(i) {
			b[k] = b[len(b)-1]
			b = b[:len(b)-1]
			break
		}
	}
	s.buckets[c] = b
	if len(b) == 0 {
		at, last := s.occAt[c], s.occ[len(s.occ)-1]
		s.occ[at] = last
		s.occAt[last] = at
		s.occ = s.occ[:len(s.occ)-1]
	}
}

func (s *geomState) cellIndex(i int) int32 {
	cells := s.cells
	cx := int(s.xs[i] * float64(cells))
	if cx >= cells {
		cx = cells - 1
	}
	cy := int(s.ys[i] * float64(cells))
	if cy >= cells {
		cy = cells - 1
	}
	return int32(cy*cells + cx)
}

// halfOffsets is one representative of each ± class of the eight grid
// neighbor offsets. Scanning only these (plus same-cell pairs with j > i)
// visits every unordered pair of adjacent cells exactly once, so no pair
// can be emitted twice — distinct offsets here never alias the same
// neighbor for a grid of side ≥ 4, which newState guarantees.
var halfOffsets = [4][2]int{{1, 0}, {1, 1}, {0, 1}, {-1, 1}}

// scanGrid emits a packed event for every pair within the radius at slot
// t, visiting only the occupied cells. The order in which cells are
// visited does not reach the output: each pair is emitted at most once
// per slot, and both groupers order a slot's events by pair.
func (s *geomState) scanGrid(t int) {
	cells := s.cells
	for _, c := range s.occ {
		b := s.buckets[c]
		for ai := 0; ai < len(b); ai++ {
			for bi := ai + 1; bi < len(b); bi++ {
				s.tryPair(int(b[ai]), int(b[bi]), t)
			}
		}
		cx, cy := int(c)%cells, int(c)/cells
		for _, d := range halfOffsets {
			bx := cx + d[0]
			if bx < 0 {
				bx += cells
			} else if bx >= cells {
				bx -= cells
			}
			by := cy + d[1]
			if by >= cells {
				by -= cells
			}
			nb := s.buckets[by*cells+bx]
			for _, i := range b {
				for _, j := range nb {
					s.tryPair(int(i), int(j), t)
				}
			}
		}
	}
}

// scanBrute is the dense-radius / tiny-n pair scan.
func (s *geomState) scanBrute(t int) {
	for u := 0; u < s.n; u++ {
		for v := u + 1; v < s.n; v++ {
			s.tryPair(u, v, t)
		}
	}
}

func (s *geomState) tryPair(i, j, t int) {
	if torusDist2(s.xs, s.ys, i, j) <= s.r2 {
		if i > j {
			i, j = j, i
		}
		key := uint64(i)*uint64(s.n) + uint64(j)
		s.events = append(s.events, key*s.aP1+uint64(t))
	}
}

// group converts the sorted event buffer into the canonical edge list and
// CSR labeling, all in state-owned reused buffers.
func (s *geomState) group() ([]int32, []int32, temporal.Labeling) {
	s.from, s.to = s.from[:0], s.to[:0]
	s.lab.Labels = s.lab.Labels[:0]
	s.lab.Off = append(s.lab.Off[:0], 0)
	const none = ^uint64(0)
	last := none
	un := uint64(s.n)
	for _, ev := range s.events {
		key := ev / s.aP1
		if key != last {
			if last != none {
				s.lab.Off = append(s.lab.Off, int32(len(s.lab.Labels)))
			}
			s.from = append(s.from, int32(key/un))
			s.to = append(s.to, int32(key%un))
			last = key
		}
		s.lab.Labels = append(s.lab.Labels, int32(ev%s.aP1))
	}
	if last != none {
		s.lab.Off = append(s.lab.Off, int32(len(s.lab.Labels)))
	}
	return s.from, s.to, s.lab
}

// groupCounting converts the t-major event buffer into the canonical edge
// list and CSR labeling without touching the events' order: a stable
// two-pass counting sort keyed by pair. The scan's outer loop is t, so
// each pair's events are already ascending in t and stability alone keeps
// every label run sorted; only the distinct pair keys — one per support
// edge, a small fraction of the events — go through a real sort.
func (s *geomState) groupCounting() ([]int32, []int32, temporal.Labeling) {
	for _, ev := range s.events {
		k := int32(ev / s.aP1)
		if s.counts[k] == 0 {
			s.touched = append(s.touched, k)
		}
		s.counts[k]++
	}
	slices.Sort(s.touched)
	s.from, s.to = s.from[:0], s.to[:0]
	s.lab.Off = append(s.lab.Off[:0], 0)
	un := int32(s.n)
	total := int32(0)
	for _, k := range s.touched {
		s.from = append(s.from, k/un)
		s.to = append(s.to, k%un)
		c := s.counts[k]
		s.counts[k] = total // becomes this pair's write cursor
		total += c
		s.lab.Off = append(s.lab.Off, total)
	}
	if cap(s.lab.Labels) < len(s.events) {
		s.lab.Labels = make([]int32, len(s.events))
	}
	s.lab.Labels = s.lab.Labels[:len(s.events)]
	for _, ev := range s.events {
		k := int32(ev / s.aP1)
		s.lab.Labels[s.counts[k]] = int32(ev % s.aP1)
		s.counts[k]++
	}
	for _, k := range s.touched {
		s.counts[k] = 0
	}
	s.touched = s.touched[:0]
	return s.from, s.to, s.lab
}

// generateMap is the original map-accumulating generator, kept as the
// overflow fallback and as the differential oracle for the packed-event
// engine.
func (m Geometric) generateMap(n int, stream *rng.Stream) (*graph.Graph, temporal.Labeling) {
	r := m.Radius(n)
	r2 := r * r
	w := newWalk(n, m.step, stream)
	pairs := make(map[int64][]int)
	cells := int(math.Floor(1 / r))
	for t := 1; t <= m.a; t++ {
		if cells < 4 || n < 16 {
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if w.dist2(u, v) <= r2 {
						key := int64(u)*int64(n) + int64(v)
						pairs[key] = append(pairs[key], t)
					}
				}
			}
		} else {
			m.closePairsGrid(n, cells, r2, w, t, pairs)
		}
		if t < m.a {
			w.advance(stream)
		}
	}

	keys := make([]int64, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b := graph.NewBuilder(n, false)
	sets := make([][]int, 0, len(keys))
	for _, k := range keys {
		b.AddEdge(int(k/int64(n)), int(k%int64(n)))
		sets = append(sets, pairs[k])
	}
	return b.Build(), temporal.LabelingFromSets(sets)
}

// closePairsGrid appends slot t to every pair within the radius, bucketing
// points into a cells×cells torus grid and scanning 3×3 neighborhoods.
func (m Geometric) closePairsGrid(n, cells int, r2 float64, w *walk, t int, pairs map[int64][]int) {
	buckets := make([][]int32, cells*cells)
	cellOf := func(i int) (int, int) {
		cx := int(w.xs[i] * float64(cells))
		cy := int(w.ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		buckets[cy*cells+cx] = append(buckets[cy*cells+cx], int32(i))
	}
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				bx := (cx + dx + cells) % cells
				by := (cy + dy + cells) % cells
				for _, j32 := range buckets[by*cells+bx] {
					j := int(j32)
					if j <= i {
						continue
					}
					if w.dist2(i, j) <= r2 {
						key := int64(i)*int64(n) + int64(j)
						pairs[key] = append(pairs[key], t)
					}
				}
			}
		}
	}
}

func init() {
	Register(Builder{
		Name:     "geometric",
		Doc:      "dynamic random geometric graph: torus random walks, edge live at t iff within radius",
		Scenario: true,
		Knobs: []Knob{
			{Name: "radius", Default: 0, Doc: "live radius in (0,0.5); 0 means 1.5·sqrt(ln n/(π·n))"},
			{Name: "step", Default: 0.05, Doc: "per-slot displacement half-range in (0,0.5]"},
		},
		New: func(p Params) (Model, error) {
			return NewGeometric(p.lifetime(), p.get("radius", 0), p.get("step", 0.05))
		},
	})
}
