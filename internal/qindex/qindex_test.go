package qindex

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// namedNet is one differential input.
type namedNet struct {
	name string
	net  *temporal.Network
}

// availNetworks is the differential matrix: every registered availability
// model over substrates including the degenerate n = 0 and 1.
func availNetworks(t testing.TB) []namedNet {
	t.Helper()
	var out []namedNet
	substrates := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.NewBuilder(0, false).Build()},
		{"single", graph.Clique(1, false)},
		{"clique10", graph.Clique(10, false)},
		{"dpath8", graph.Path(8)},
		{"grid3x4", graph.Grid(3, 4)},
	}
	idx := uint64(0)
	for _, name := range avail.Names() {
		m, err := avail.Build(name, avail.Params{Lifetime: 14})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		for _, sub := range substrates {
			idx++
			out = append(out, namedNet{fmt.Sprintf("%s/%s", name, sub.name), avail.Network(m, sub.g, rng.NewStream(41, idx))})
		}
	}
	return out
}

// modesFor returns one index per mode over net, with the LRU budget
// squeezed to two rows so evictions and recomputes actually happen.
func modesFor(net *temporal.Network) map[string]*Index {
	n := net.Graph().N()
	return map[string]*Index{
		"full": New(net, Options{Mode: ModeFull}),
		"lru":  New(net, Options{Mode: ModeLRU, MemBudget: 2 * rowBytes(max(n, 1))}),
		"off":  New(net, Options{Mode: ModeOff}),
		"auto": New(net, Options{}),
	}
}

// TestDifferentialAcrossModesAndModels pins every mode's answers
// bit-identical to the frontier ground truth — and, at start = 1, to
// ForemostJourney — for every model × substrate, every (src, dst) pair
// and a spread of departure floors. Queries repeat so hits, misses,
// evictions and recomputes all occur mid-stream. One extra network has
// lifetime 2^20 and one label per edge, so ModeFull's 16-bit table
// saturates on most of its pairs and answers them by point scans.
func TestDifferentialAcrossModesAndModels(t *testing.T) {
	wide := queryNetwork(t, graph.Clique(10, false), 1<<20, 1, 45)
	sat := 0
	wideIx := New(wide, Options{Mode: ModeFull})
	for _, a := range wideIx.full {
		if a == saturated {
			sat++
		}
	}
	// The loop reads a mapped table after wideIx's last use: without
	// this, wideIx's cleanup could unmap the table mid-loop.
	runtime.KeepAlive(wideIx)
	if sat < 90/2 {
		t.Fatalf("lifetime-2^20 clique saturates %d of 90 pairs, want most", sat)
	}
	nets := append(availNetworks(t), namedNet{"uniform-life2^20/clique10", wide})
	for _, tn := range nets {
		nv := tn.net.Graph().N()
		life := int32(tn.net.Lifetime())
		truth := make([]int32, nv)
		for mode, ix := range modesFor(tn.net) {
			if nv == 0 {
				// No valid queries; the index must still build and report.
				if st := ix.Stats(); st.N != 0 {
					t.Fatalf("%s/%s: n=0 stats %+v", tn.name, mode, st)
				}
				continue
			}
			for pass := 0; pass < 2; pass++ { // second pass re-asks: hit paths
				for _, start := range []int32{1, 2, life / 2, life, life + 3} {
					for s := 0; s < nv; s++ {
						tn.net.EarliestArrivalsFromInto(s, start, truth)
						for v := 0; v < nv; v++ {
							if got := ix.Arrival(s, v, start); got != truth[v] {
								t.Fatalf("%s/%s: (%d,%d,start=%d) = %d, frontier %d",
									tn.name, mode, s, v, start, got, truth[v])
							}
							if start == 1 {
								j, ok := tn.net.ForemostJourney(s, v)
								if ok != (truth[v] != temporal.Unreachable) {
									t.Fatalf("%s: ForemostJourney(%d,%d) ok=%v, δ=%d",
										tn.name, s, v, ok, truth[v])
								}
								if ok && s != v && j.ArrivalTime() != truth[v] {
									t.Fatalf("%s: journey arrives %d, δ=%d", tn.name, j.ArrivalTime(), truth[v])
								}
							}
						}
					}
				}
			}
			st := ix.Stats()
			if mode != "off" && st.Hits == 0 && nv > 1 {
				t.Fatalf("%s/%s: no hits recorded: %+v", tn.name, mode, st)
			}
			if mode == "off" && st.ResidentRows != 0 {
				t.Fatalf("%s/off holds rows: %+v", tn.name, st)
			}
		}
	}
}

// queryNetwork builds a moderate fixture with r uniform labels per edge.
func queryNetwork(tb testing.TB, g *graph.Graph, lifetime, r int, seed uint64) *temporal.Network {
	tb.Helper()
	stream := rng.New(seed)
	sets := make([][]int, g.M())
	for e := range sets {
		for k := 0; k < r; k++ {
			sets[e] = append(sets[e], 1+stream.Intn(lifetime))
		}
	}
	return temporal.MustNew(g, lifetime, temporal.LabelingFromSets(sets))
}

// TestCoalescingSingleCompute launches many concurrent queries for one
// (src, dst, start) key on a cold index and asserts exactly one kernel
// run happened: the leader blocks inside the compute hook until every
// other goroutine has registered as a coalesced waiter.
func TestCoalescingSingleCompute(t *testing.T) {
	net := queryNetwork(t, graph.Grid(6, 6), 40, 2, 17)
	ix := New(net, Options{Mode: ModeLRU, MemBudget: 64 * rowBytes(36)})
	const waiters = 8
	ix.computeHook = func(src int, start int32) {
		deadline := time.Now().Add(5 * time.Second)
		for ix.coalesced.Load() < waiters-1 {
			if time.Now().After(deadline) {
				t.Errorf("only %d/%d waiters coalesced", ix.coalesced.Load(), waiters-1)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	truth := make([]int32, 36)
	net.EarliestArrivalsFromInto(3, 2, truth)
	var wg sync.WaitGroup
	answers := make([]int32, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i] = ix.Arrival(3, 30, 2)
		}(i)
	}
	wg.Wait()
	for i, a := range answers {
		if a != truth[30] {
			t.Fatalf("waiter %d got %d, want %d", i, a, truth[30])
		}
	}
	st := ix.Stats()
	if st.RowsComputed != 1 {
		t.Fatalf("rows computed = %d, want 1 (stats %+v)", st.RowsComputed, st)
	}
	if st.Coalesced != waiters-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, waiters-1)
	}
	if st.Misses != waiters {
		t.Fatalf("misses = %d, want %d", st.Misses, waiters)
	}
	// The computed row is now resident: one more ask is a pure hit.
	if got := ix.Arrival(3, 30, 2); got != truth[30] {
		t.Fatalf("post-coalesce hit = %d, want %d", got, truth[30])
	}
	if st2 := ix.Stats(); st2.Hits != st.Hits+1 || st2.RowsComputed != 1 {
		t.Fatalf("follow-up not a hit: before %+v after %+v", st, st2)
	}
}

// TestLRUEvictionAndRecompute squeezes the budget to two rows and walks
// three sources: the oldest row must fall out and cost a recompute on
// return, with buffers recycled rather than reallocated. The two resident
// rows hold 4n bytes each, in Stats and on the qindex_resident_bytes
// gauge, which the eviction moved back down.
func TestLRUEvictionAndRecompute(t *testing.T) {
	gauge0 := obsResidentBytes.Value()
	net := queryNetwork(t, graph.Clique(12, false), 24, 2, 5)
	ix := New(net, Options{Mode: ModeLRU, MemBudget: 2 * rowBytes(12)})
	if ix.maxRows != 2 {
		t.Fatalf("maxRows = %d, want 2", ix.maxRows)
	}
	for _, src := range []int{0, 1, 2} {
		ix.Arrival(src, 5, 1)
	}
	st := ix.Stats()
	if st.Evictions == 0 || st.ResidentRows != 2 || st.ResidentBytes != 2*48 {
		t.Fatalf("after 3 sources: %+v", st)
	}
	if d := obsResidentBytes.Value() - gauge0; d != 2*48 {
		t.Fatalf("qindex_resident_bytes moved by %d, want 96", d)
	}
	// Source 0 was evicted: asking again recomputes; sources 1 and 2 hit.
	ix.Arrival(2, 7, 1)
	ix.Arrival(1, 7, 1)
	ix.Arrival(0, 7, 1)
	st2 := ix.Stats()
	if st2.RowsComputed != st.RowsComputed+1 {
		t.Fatalf("re-ask of evicted row: computed %d → %d, want +1", st.RowsComputed, st2.RowsComputed)
	}
	if hits := st2.Hits - st.Hits; hits != 2 {
		t.Fatalf("resident re-asks: %d hits, want 2", hits)
	}
}

// TestModeAutoPivot checks the budget pivot between full and LRU, which
// sits at the 16-bit table's 2n² bytes.
func TestModeAutoPivot(t *testing.T) {
	if got := FullTableBytes(16); got != 512 {
		t.Fatalf("FullTableBytes(16) = %d, want 512", got)
	}
	net := queryNetwork(t, graph.Path(16), 10, 1, 9)
	if ix := New(net, Options{MemBudget: FullTableBytes(16)}); ix.mode != ModeFull {
		t.Fatalf("ample budget resolved to %v", ix.mode)
	}
	if ix := New(net, Options{MemBudget: FullTableBytes(16) - 1}); ix.mode != ModeLRU {
		t.Fatalf("tight budget resolved to %v", ix.mode)
	}
}

// TestFullModeRestrictedStart exercises ModeFull's start > 1 path (point
// scans, no stored rows) and its build stats: the 16-bit table holds 2n²
// bytes, in Stats and on the qindex_resident_bytes gauge.
func TestFullModeRestrictedStart(t *testing.T) {
	gauge0 := obsResidentBytes.Value()
	net := queryNetwork(t, graph.Grid(4, 4), 20, 2, 13)
	ix := New(net, Options{Mode: ModeFull})
	if d := obsResidentBytes.Value() - gauge0; d != 512 {
		t.Fatalf("qindex_resident_bytes moved by %d, want 512", d)
	}
	truth := make([]int32, 16)
	net.EarliestArrivalsFromInto(2, 9, truth)
	for v := 0; v < 16; v++ {
		if got := ix.Arrival(2, v, 9); got != truth[v] {
			t.Fatalf("(2,%d,start=9) = %d, want %d", v, got, truth[v])
		}
	}
	st := ix.Stats()
	if st.Mode != "full" || st.ResidentRows != 16 || st.ResidentBytes != 512 || st.RowsComputed != 16 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCloseReleasesTable pins Close's bookkeeping: it takes exactly the n
// rows and 2n² bytes the build put on the resident gauges back off, Stats
// then reports no resident table, and a second Close, or a Close of an
// LRU index, changes nothing.
func TestCloseReleasesTable(t *testing.T) {
	rows0, bytes0 := obsResident.Value(), obsResidentBytes.Value()
	gauges := func() (int64, int64) {
		return obsResident.Value() - rows0, obsResidentBytes.Value() - bytes0
	}
	net := queryNetwork(t, graph.Grid(4, 4), 20, 2, 13)
	ix := New(net, Options{Mode: ModeFull})
	if rows, bytes := gauges(); rows != 16 || bytes != 512 {
		t.Fatalf("after New: gauges moved by %d rows, %d bytes; want 16, 512", rows, bytes)
	}
	for i := 0; i < 2; i++ {
		ix.Close()
		if rows, bytes := gauges(); rows != 0 || bytes != 0 {
			t.Fatalf("after Close #%d: gauges moved by %d rows, %d bytes; want 0, 0", i+1, rows, bytes)
		}
		if st := ix.Stats(); st.ResidentRows != 0 || st.ResidentBytes != 0 || st.Mode != "full" {
			t.Fatalf("after Close #%d: stats %+v", i+1, st)
		}
	}
	lru := New(net, Options{Mode: ModeLRU})
	lru.Arrival(0, 5, 1)
	lru.Close()
	if st := lru.Stats(); st.ResidentRows != 1 || st.ResidentBytes != rowBytes(16) {
		t.Fatalf("LRU after Close: stats %+v, want its one row", st)
	}
	if rows, bytes := gauges(); rows != 1 || bytes != rowBytes(16) {
		t.Fatalf("LRU after Close: gauges moved by %d rows, %d bytes; want 1, %d", rows, bytes, rowBytes(16))
	}
}

// TestFullTableOffHeap checks that a mapped ModeFull table stays off the Go
// heap: across New at n = 2048, an 8 MiB table, the live heap must grow
// by less than a quarter of the table.
func TestFullTableOffHeap(t *testing.T) {
	if !tablesMapped {
		t.Skip("ModeFull tables stay on the Go heap in this build")
	}
	const n = 2048
	net := queryNetwork(t, graph.Path(n), n, 1, 3)
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	liveHeap := func() int64 {
		runtime.GC()
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	before := liveHeap()
	ix := New(net, Options{Mode: ModeFull})
	grew := liveHeap() - before
	ix.Close() // also keeps ix, and so its table, alive across the read
	if grew >= FullTableBytes(n)/4 {
		t.Fatalf("heap grew by %d bytes across New; the table is %d", grew, FullTableBytes(n))
	}
}

// TestDroppedTablesUnmapped drops eight ModeFull indexes without Close:
// the cleanup each build registers must unmap every table once the
// collector finds its index unreachable.
func TestDroppedTablesUnmapped(t *testing.T) {
	if !tablesMapped {
		t.Skip("ModeFull tables stay on the Go heap in this build")
	}
	const n, drops = 512, 8
	net := queryNetwork(t, graph.Path(n), n, 1, 7)
	base := unmappedBytes.Load()
	for i := 0; i < drops; i++ {
		New(net, Options{Mode: ModeFull})
	}
	// Tables dropped by earlier tests may be unmapped here too, but they
	// are all far smaller than one of these.
	want := drops * FullTableBytes(n)
	deadline := time.Now().Add(10 * time.Second)
	for unmappedBytes.Load()-base < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes unmapped after GC, want %d", unmappedBytes.Load()-base, want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestPointPathStats pins how ModeFull counts what its table cannot
// answer: a reachable late start costs one miss and computes no row, and
// a pair the start = 1 table already marks unreachable is a hit that runs
// no kernel (no miss). At start = 1 an arrival of 0xFFFD is a table hit,
// while an arrival of 0xFFFE or more saturates its 16-bit entry and costs
// one point scan — 0xFFFF included, which must not read as "no journey".
func TestPointPathStats(t *testing.T) {
	// 0 →(3) 1 →(5) 2, vertex 3 isolated, and 0 → 4, 5, 6 at 0xFFFD,
	// 0xFFFE and 0xFFFF.
	b := graph.NewBuilder(7, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 4)
	b.AddEdge(0, 5)
	b.AddEdge(0, 6)
	net := temporal.MustNew(b.Build(), 0xFFFF,
		temporal.LabelingFromSets([][]int{{3}, {5}, {0xFFFD}, {0xFFFE}, {0xFFFF}}))
	ix := New(net, Options{Mode: ModeFull})
	for _, tc := range []struct {
		name         string
		dst          int
		start        int32
		want         int32
		hits, misses uint64
	}{
		{"late start", 2, 2, 5, 0, 1},
		{"unreachable at start=1", 3, 2, temporal.Unreachable, 1, 0},
		{"0xFFFD at start=1", 4, 1, 0xFFFD, 1, 0},
		{"0xFFFE at start=1", 5, 1, 0xFFFE, 0, 1},
		{"0xFFFF at start=1", 6, 1, 0xFFFF, 0, 1},
	} {
		before := ix.Stats()
		if got := ix.Arrival(0, tc.dst, tc.start); got != tc.want {
			t.Fatalf("%s: (0,%d,start=%d) = %d, want %d", tc.name, tc.dst, tc.start, got, tc.want)
		}
		after := ix.Stats()
		if after.Hits-before.Hits != tc.hits || after.Misses-before.Misses != tc.misses ||
			after.RowsComputed != before.RowsComputed || after.Coalesced != 0 {
			t.Fatalf("%s: stats %+v → %+v, want +%d hits, +%d misses, no row computed",
				tc.name, before, after, tc.hits, tc.misses)
		}
	}
}

// TestParseMode round-trips the flag names and rejects junk.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeAuto, ModeFull, ModeLRU, ModeOff} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("banana"); err == nil {
		t.Fatal("ParseMode accepted junk")
	}
	if s := Mode(99).String(); s != "Mode(99)" {
		t.Fatalf("Mode(99).String() = %q", s)
	}
}

// TestConcurrentMixedQueries hammers one LRU index from many goroutines
// with overlapping keys under -race, checking every answer against the
// precomputed truth table.
func TestConcurrentMixedQueries(t *testing.T) {
	g := graph.Clique(20, false)
	net := queryNetwork(t, g, 30, 2, 23)
	ix := New(net, Options{Mode: ModeLRU, MemBudget: 4 * rowBytes(20)})
	truth := make([][]int32, 20)
	for s := range truth {
		truth[s] = net.EarliestArrivals(s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := rng.New(uint64(w) + 100)
			for i := 0; i < 400; i++ {
				s, v := stream.Intn(20), stream.Intn(20)
				if got := ix.Arrival(s, v, 1); got != truth[s][v] {
					t.Errorf("(%d,%d) = %d, want %d", s, v, got, truth[s][v])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentPointQueries hammers a ModeFull index with late starts and
// a ModeOff index with all starts from many goroutines under -race: point
// scans share only the pooled scratch, and every answer must equal the
// frontier row's entry.
func TestConcurrentPointQueries(t *testing.T) {
	const nv = 30
	net := queryNetwork(t, graph.Grid(5, 6), 40, 2, 29)
	full := New(net, Options{Mode: ModeFull})
	off := New(net, Options{Mode: ModeOff})
	starts := []int32{1, 2, 9, 20, 33, 41}
	truth := make(map[[2]int32][]int32)
	for _, start := range starts {
		for s := 0; s < nv; s++ {
			row := make([]int32, nv)
			net.EarliestArrivalsFromInto(s, start, row)
			truth[[2]int32{int32(s), start}] = row
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := rng.New(uint64(w) + 300)
			for i := 0; i < 400; i++ {
				s, v := stream.Intn(nv), stream.Intn(nv)
				start := starts[stream.Intn(len(starts))]
				ix, mode := off, "off"
				if w%2 == 0 {
					ix, mode, start = full, "full", max(start, 2)
				}
				if got, want := ix.Arrival(s, v, start), truth[[2]int32{int32(s), start}][v]; got != want {
					t.Errorf("%s: (%d,%d,start=%d) = %d, want %d", mode, s, v, start, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Only the full table's build computes rows; no point scan coalesces.
	for _, c := range []struct {
		ix   *Index
		rows uint64
	}{{full, nv}, {off, 0}} {
		if st := c.ix.Stats(); st.Misses == 0 || st.RowsComputed != c.rows || st.Coalesced != 0 {
			t.Fatalf("%s: stats %+v", st.Mode, st)
		}
	}
}
