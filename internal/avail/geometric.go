package avail

import (
	"fmt"
	"math"
	"math/bits"
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
// ever live; Resample labels an explicit substrate instead, gating each of
// its edges by the same mobility. As an IncrementalScenario it also hands
// batch engines a reusable per-worker trial state (NewScenarioState) that
// redraws whole trials into retained buffers — per-slot grid runs, pair
// keys, canonical edge list — bit-identical to Generate.
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
func (w *walk) dist2(i, j int) float64 { return torusDist2(w.xs[i], w.ys[i], w.xs[j], w.ys[j]) }

// torusDist2 is the squared torus distance between (xi, yi) and (xj, yj).
// It is symmetric bit for bit, as |a−b| and |b−a| round alike.
func torusDist2(xi, yi, xj, yj float64) float64 {
	dx := math.Abs(xi - xj)
	if dx > 0.5 {
		dx = 1 - dx
	}
	dy := math.Abs(yi - yj)
	if dy > 0.5 {
		dy = 1 - dy
	}
	return dx*dx + dy*dy
}

// Resample gates the edges of an explicit substrate by the mobility, into
// lab: edge e carries label t iff its endpoints are within the radius at
// slot t. Edges whose endpoints never meet receive empty label sets. On
// the complete graph this is the brute-force reference Generate is tested
// against; engines never call it, since a scenario's trials draw through
// Generate or its ScenarioState.
func (m Geometric) Resample(g *graph.Graph, lab *temporal.Labeling, stream *rng.Stream) {
	n := g.N()
	r := m.Radius(n)
	r2 := r * r
	w := newWalk(n, m.step, stream)
	sets := make([][]int32, g.M())
	for t := 1; t <= m.a; t++ {
		for e := range sets {
			u, v := g.Endpoints(e)
			if w.dist2(u, v) <= r2 {
				sets[e] = append(sets[e], int32(t))
			}
		}
		if t < m.a {
			w.advance(stream)
		}
	}
	lab.Reset(g.M())
	for e, set := range sets {
		lab.Labels = append(lab.Labels, set...)
		lab.Off[e+1] = int32(len(lab.Labels))
	}
}

// Generate runs the walk and returns the support graph of every pair that
// is ever live, labeled with its live slots. Edges come out in canonical
// order (from < to, lexicographically ascending). This is the simple
// map-accumulating reference implementation, kept deliberately independent
// of the incremental engine batched trials run on (NewScenarioState): the
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
// retained: the point coordinates, the torus grid's per-cell run bounds,
// the slot-major pair-key buffer, and the output edge list + labeling.
// After the first trial at a stable size, Resample allocates nothing.
type geomState struct {
	geo   Geometric
	n     int
	r2    float64
	cells int    // grid side; 0 = every point in one run, all pairs scanned
	aP1   uint64 // lifetime+1, the packed-event time radix of the sort path

	pos []point // the walk, in vertex order

	// run and runID hold the points regrouped into one contiguous run
	// per occupied grid cell, in vertex order inside a run, with their
	// vertex ids; without a grid, run is pos itself, one run of every
	// point. The grid (cells > 0) is rebuilt every slot rather than
	// maintained across steps: with the cell side near the radius and
	// the radius near the step, most points change cell every slot.
	// cellOf[i] is point i's cell this slot; grid[c] carries cell c's run
	// bounds, valid only while its stamp equals epoch, so the grid is
	// never cleared between slots; occ lists this slot's occupied cells.
	run    []point
	runID  []int32
	cellOf []int32
	grid   []gridCell
	occ    []cellXY
	epoch  uint32

	// keys collects one pair key u·n+v (u < v) per (pair, slot) liveness,
	// slot by slot: keys[slotEnd[t-1]:slotEnd[t]] are slot t's. Grouping
	// by key with a stable counting sort (groupCounting, when counts is
	// non-nil) yields canonical edge order with ascending labels inside
	// each edge without comparison-sorting the buffer; states too large
	// for a per-pair cursor array pack each key with its slot and sort
	// the packed words instead (group).
	keys    []uint64
	slotEnd []int32

	// counts/seen are the counting-sort cursors and a bitmap over pair
	// keys (both zero outside a trial): walking the bitmap in word order
	// lists the touched keys in ascending order, so no comparison sort
	// runs, and resetting is O(edges + n²/64), not O(n²).
	counts []int32
	seen   []uint64

	from, to []int32
	lab      temporal.Labeling
}

type point struct{ x, y float64 }

// cellXY is a grid cell by column and row.
type cellXY struct{ x, y int32 }

// gridCell is one grid cell's run bounds [lo, hi) into run/runID, valid
// while stamp equals the state's epoch.
type gridCell struct {
	stamp  uint32
	lo, hi int32
}

// countingMaxKeys bounds the pair-key space (n²) the counting-sort path
// allocates a cursor array for — 2²⁰ int32 cursors is 4 MiB per state,
// i.e. per batch worker. Larger states comparison-sort the events.
const countingMaxKeys = 1 << 20

// gridSide is the side of the torus grid the engine bins points into for
// an n-point instance at radius r, or 0 when a grid does not pay off (a
// side below 4, or fewer than 16 points). Any side up to ⌊1/r⌋ keeps
// every close pair within the 3×3 block of cells around either point,
// and the finest such grid scans fastest, as an empty neighbour cell
// costs less than a distance test. Bounding the side by 4·⌈√n⌉ as well
// keeps the grid at O(n) cells, about 16 per point, however small the
// radius.
func gridSide(n int, r float64) int {
	if n < 16 {
		return 0
	}
	side := math.Min(math.Floor(1/r), 4*math.Ceil(math.Sqrt(float64(n))))
	if side < 4 {
		return 0
	}
	return int(side)
}

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
		pos: make([]point, n), runID: make([]int32, n),
	}
	if cells := gridSide(n, r); cells > 0 {
		s.cells = cells
		s.run = make([]point, n)
		s.cellOf = make([]int32, n)
		s.grid = make([]gridCell, cells*cells)
		s.occ = make([]cellXY, 0, min(n, cells*cells))
	} else {
		s.run = s.pos
		for i := range s.runID {
			s.runID[i] = int32(i)
		}
	}
	if nk := n * n; nk > 0 && nk <= countingMaxKeys {
		s.counts = make([]int32, nk)
		s.seen = make([]uint64, (nk+63)/64)
	}
	return s
}

// Resample redraws one full trial: identical stream consumption to the
// walk in Generate and Geometric.Resample (init draws x,y per point, each
// advance draws x,y per point, a−1 advances), identical pair set,
// identical canonical output order. Implements avail.ScenarioState.
func (s *geomState) Resample(stream *rng.Stream) ([]int32, []int32, temporal.Labeling) {
	for i := range s.pos {
		s.pos[i].x = stream.Float64()
		s.pos[i].y = stream.Float64()
	}
	s.keys, s.slotEnd = s.keys[:0], append(s.slotEnd[:0], 0)
	a := s.geo.a
	for t := 1; t <= a; t++ {
		if s.cells > 0 {
			s.scanGrid()
		} else {
			s.pairsWithin(s.run, s.runID)
		}
		s.slotEnd = append(s.slotEnd, int32(len(s.keys)))
		if t < a {
			s.advance(stream)
		}
	}
	if s.counts != nil {
		return s.groupCounting()
	}
	return s.group()
}

// advance moves every point one slot, drawing uniforms in exactly the
// walk.advance order.
func (s *geomState) advance(stream *rng.Stream) {
	step := s.geo.step
	for i := range s.pos {
		p := &s.pos[i]
		p.x = wrapStep(p.x + (2*stream.Float64()-1)*step)
		p.y = wrapStep(p.y + (2*stream.Float64()-1)*step)
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

// scanGrid emits the key of every pair within the radius at the current
// slot. It bins the points into per-cell runs — one pass to find each
// point's cell and count the occupied cells' sizes, one over the occupied
// cells to lay the runs out, one to copy the points in — and then scans
// each occupied run against itself and the runs of its four forward
// neighbours (x+1, y), (x+1, y+1), (x, y+1) and (x−1, y+1): one offset of
// each ± pair of the eight, so every unordered pair of adjacent cells is
// visited once, and on a grid of side ≥ 4, which gridSide guarantees, the
// four are distinct. No pair is emitted twice, and the order in which
// cells are visited does not reach the output, as both groupers order a
// slot's keys by pair.
func (s *geomState) scanGrid() {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could read as current
		clear(s.grid)
		s.epoch = 1
	}
	ep, cells, fc := s.epoch, s.cells, float64(s.cells)
	grid, cellOf := s.grid, s.cellOf[:len(s.pos)]
	occ := s.occ[:0]
	for i, p := range s.pos {
		cx := int(p.x * fc)
		if cx >= cells {
			cx = cells - 1
		}
		cy := int(p.y * fc)
		if cy >= cells {
			cy = cells - 1
		}
		c := int32(cy*cells + cx)
		cellOf[i] = c
		g := &grid[c]
		if g.stamp != ep {
			*g = gridCell{stamp: ep}
			occ = append(occ, cellXY{int32(cx), int32(cy)})
		}
		g.hi++ // the cell's size until the runs are laid out
	}
	s.occ = occ
	end := int32(0)
	for _, o := range occ {
		g := &grid[o.y*int32(cells)+o.x]
		g.lo, g.hi, end = end, end, end+g.hi
	}
	run, runID := s.run, s.runID
	for i, c := range cellOf {
		g := &grid[c]
		run[g.hi], runID[g.hi] = s.pos[i], int32(i)
		g.hi++
	}
	un, r2 := uint64(s.n), s.r2
	side := int32(cells)
	for _, o := range occ {
		row := o.y * side
		g := grid[row+o.x]
		if g.hi-g.lo > 1 {
			s.pairsWithin(run[g.lo:g.hi], runID[g.lo:g.hi])
		}
		right, left, down := o.x+1, o.x-1, row+side
		if right == side {
			right = 0
		}
		if left < 0 {
			left = side - 1
		}
		if o.y == side-1 {
			down = 0
		}
		for _, nc := range [4]int32{row + right, down + right, down + o.x, down + left} {
			h := grid[nc]
			if h.stamp != ep {
				continue
			}
			buf, k := s.room(int(g.hi-g.lo)*int(h.hi-h.lo)), 0
			for i := g.lo; i < g.hi; i++ {
				p, u := run[i], runID[i]
				for j := h.lo; j < h.hi; j++ {
					q, v := run[j], runID[j]
					buf[k] = uint64(min(u, v))*un + uint64(max(u, v))
					if torusDist2(p.x, p.y, q.x, q.y) <= r2 {
						k++
					}
				}
			}
			s.keys = s.keys[:len(s.keys)+k]
		}
	}
}

// room returns the unused tail of keys, grown to hold at least k more.
// The pair scans store every candidate's key there and advance their
// count only for pairs within the radius, a conditional move instead of
// a branch the radius test would mispredict.
func (s *geomState) room(k int) []uint64 {
	if cap(s.keys)-len(s.keys) < k {
		s.keys = slices.Grow(s.keys, k)
	}
	return s.keys[len(s.keys):cap(s.keys)]
}

// pairsWithin emits every close pair inside one run, whose ids ascend.
func (s *geomState) pairsWithin(ps []point, ids []int32) {
	ids = ids[:len(ps)]
	un, r2 := uint64(s.n), s.r2
	for i, p := range ps {
		buf, k := s.room(len(ps)-i-1), 0
		ki := uint64(ids[i]) * un
		for j := i + 1; j < len(ps); j++ {
			q := ps[j]
			buf[k] = ki + uint64(ids[j])
			if torusDist2(p.x, p.y, q.x, q.y) <= r2 {
				k++
			}
		}
		s.keys = s.keys[:len(s.keys)+k]
	}
}

// group converts the slot-major key buffer into the canonical edge list
// and CSR labeling by packing each key with its slot as key·(a+1)+t and
// sorting the packed words, all in state-owned reused buffers.
func (s *geomState) group() ([]int32, []int32, temporal.Labeling) {
	for t := 1; t <= s.geo.a; t++ {
		for i := s.slotEnd[t-1]; i < s.slotEnd[t]; i++ {
			s.keys[i] = s.keys[i]*s.aP1 + uint64(t)
		}
	}
	slices.Sort(s.keys)
	s.from, s.to = s.from[:0], s.to[:0]
	s.lab.Labels = s.lab.Labels[:0]
	s.lab.Off = append(s.lab.Off[:0], 0)
	const none = ^uint64(0)
	last := none
	un := uint64(s.n)
	for _, ev := range s.keys {
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

// groupCounting converts the slot-major key buffer into the canonical
// edge list and CSR labeling without reordering the buffer: a stable
// two-pass counting sort keyed by pair. The buffer is slot-major, so each
// pair's occurrences already ascend in t and stability alone keeps every
// label run sorted; the distinct keys come out of the seen bitmap in
// ascending order.
func (s *geomState) groupCounting() ([]int32, []int32, temporal.Labeling) {
	counts, seen := s.counts, s.seen
	for _, k := range s.keys {
		counts[k]++
		seen[k>>6] |= 1 << (k & 63)
	}
	s.from, s.to = s.from[:0], s.to[:0]
	s.lab.Off = append(s.lab.Off[:0], 0)
	un := int32(s.n)
	total := int32(0)
	for w, word := range seen {
		if word == 0 {
			continue
		}
		seen[w] = 0
		for ; word != 0; word &= word - 1 {
			k := int32(w<<6 | bits.TrailingZeros64(word))
			s.from = append(s.from, k/un)
			s.to = append(s.to, k%un)
			c := counts[k]
			counts[k] = total // becomes this pair's write cursor
			total += c
			s.lab.Off = append(s.lab.Off, total)
		}
	}
	if cap(s.lab.Labels) < len(s.keys) {
		s.lab.Labels = make([]int32, len(s.keys))
	}
	labels := s.lab.Labels[:len(s.keys)]
	for t := 1; t <= s.geo.a; t++ {
		for _, k := range s.keys[s.slotEnd[t-1]:s.slotEnd[t]] {
			labels[counts[k]] = int32(t)
			counts[k]++
		}
	}
	s.lab.Labels = labels
	for e, u := range s.from {
		counts[u*un+s.to[e]] = 0
	}
	return s.from, s.to, s.lab
}

// generateMap is the original map-accumulating generator, kept as the
// overflow fallback and as the differential oracle for the incremental
// engine.
func (m Geometric) generateMap(n int, stream *rng.Stream) (*graph.Graph, temporal.Labeling) {
	r := m.Radius(n)
	r2 := r * r
	w := newWalk(n, m.step, stream)
	pairs := make(map[int64][]int)
	// Any side up to ⌊1/r⌋ finds every close pair; the 2·⌈√n⌉ bound keeps
	// the per-slot bucket array at O(n) however small the radius.
	cells := int(math.Min(math.Floor(1/r), 2*math.Ceil(math.Sqrt(float64(n)))))
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
