package qindex

import (
	"container/list"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/temporal"
)

// Mode selects how the index holds precomputed arrival rows.
type Mode uint8

const (
	// ModeAuto picks ModeFull when the full table fits the memory budget
	// and ModeLRU otherwise.
	ModeAuto Mode = iota
	// ModeFull precomputes the complete n×n arrival table at start = 1.
	ModeFull
	// ModeLRU keeps a memory-budgeted LRU of per-(src,start) arrival rows.
	ModeLRU
	// ModeOff keeps nothing resident; every query runs one point scan.
	ModeOff
)

// String returns the flag-style mode name.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeFull:
		return "full"
	case ModeLRU:
		return "lru"
	case ModeOff:
		return "off"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode maps the flag-style names back to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "auto":
		return ModeAuto, nil
	case "full":
		return ModeFull, nil
	case "lru":
		return ModeLRU, nil
	case "off":
		return ModeOff, nil
	}
	return ModeAuto, fmt.Errorf("qindex: unknown mode %q (want auto, full, lru or off)", s)
}

// DefaultMemBudget bounds row storage when Options.MemBudget is zero.
const DefaultMemBudget = 256 << 20 // 256 MiB

// rowBytes is the storage cost of one resident int32 LRU arrival row.
func rowBytes(n int) int64 { return 4 * int64(n) }

// FullTableBytes returns the table storage a ModeFull index on n vertices
// holds, 2n² bytes for n² 16-bit entries — the quantity ModeAuto compares
// against the memory budget.
func FullTableBytes(n int) int64 { return 2 * int64(n) * int64(n) }

// ModeFull's 16-bit table entries. Every other value is the exact start = 1
// arrival: 0 at src == dst, else a label below saturated.
const (
	// noJourney marks a pair with no journey at all: Unreachable at every
	// start, answered from the table.
	noJourney uint16 = 0xFFFF
	// saturated marks an arrival ≥ 0xFFFE, which 16 bits cannot hold
	// beside the sentinels; such a pair is answered by a point scan.
	saturated uint16 = 0xFFFE
)

// Options configures New.
type Options struct {
	// Mode selects the index layout; ModeAuto (the zero value) chooses by
	// memory budget.
	Mode Mode
	// MemBudget is the row-storage budget in bytes (ModeAuto's full/LRU
	// pivot and ModeLRU's row bound). 0 means DefaultMemBudget.
	MemBudget int64
	// Workers bounds full-table build parallelism; 0 means GOMAXPROCS.
	Workers int
}

// Index answers (src, dst, start) earliest-arrival point queries over one
// temporal network. All methods are safe for concurrent use; the query
// path allocates nothing in steady state.
type Index struct {
	net  *temporal.Network
	n    int
	mode Mode

	full []uint16 // ModeFull: row-major n×n table of start=1 arrival entries

	maxRows int // LRU row bound; 0 in full/off modes
	freeCap int // free-list bound: peak concurrent computes worth keeping

	mu       sync.Mutex
	rows     map[uint64]*list.Element
	ll       *list.List // front = most recently used
	free     [][]int32  // recycled row buffers
	inflight map[uint64]*flight

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	coalesced atomic.Uint64
	computes  atomic.Uint64

	buildDur time.Duration

	// computeHook, when set (tests), runs on the compute leader between
	// claiming a key and running the kernel — the seam the coalescing
	// tests use to hold a compute open while waiters pile up.
	computeHook func(src int, start int32)
}

// rowEntry is one resident LRU row.
type rowEntry struct {
	key uint64
	row []int32
}

// flight is one in-flight row compute shared by coalesced waiters. The
// leader computes into row and releases wg; refs counts every reader
// (leader included) and the last one recycles the buffer. Flights are
// pooled, so a steady-state miss allocates nothing.
type flight struct {
	wg   sync.WaitGroup
	row  []int32
	refs atomic.Int32
}

var flightPool = sync.Pool{New: func() any { return new(flight) }}

// key packs a query row identity: the source and the departure floor.
func key(src int, start int32) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(start))
}

// New builds an index over net. ModeFull builds the table before
// returning (64 sources per pass, Workers-way parallel); the other modes
// return immediately and fill on demand.
func New(net *temporal.Network, o Options) *Index {
	n := net.Graph().N()
	budget := o.MemBudget
	if budget <= 0 {
		budget = DefaultMemBudget
	}
	mode := o.Mode
	if mode == ModeAuto {
		if FullTableBytes(n) <= budget {
			mode = ModeFull
		} else {
			mode = ModeLRU
		}
	}
	ix := &Index{
		net:      net,
		n:        n,
		mode:     mode,
		freeCap:  64,
		rows:     make(map[uint64]*list.Element),
		ll:       list.New(),
		inflight: make(map[uint64]*flight),
	}
	switch mode {
	case ModeFull:
		ix.build(o.Workers)
	case ModeLRU:
		maxRows := int(budget / rowBytes(max(n, 1)))
		if maxRows < 1 {
			maxRows = 1
		}
		if n == 0 {
			maxRows = 0
		}
		ix.maxRows = maxRows
	}
	return ix
}

// build fills the full table, batches of 64 sources claimed off an atomic
// cursor by up to workers goroutines. Each batch's word scan stamps its
// label groups straight into the batch's 16-bit rows, so the build needs
// no scratch rows. Rows are disjoint, so the result is bit-identical for
// any worker count.
func (ix *Index) build(workers int) {
	start := time.Now()
	n := ix.n
	full := make([]uint16, n*n)
	ix.full = full
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batches := (n + 63) / 64
	if workers > batches {
		workers = batches
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var srcs [64]int32
			lo := 0 // first source of the batch being scanned
			stamp := func(label int32, dirty []int32, pend []uint64) {
				a := saturated
				if label < int32(saturated) {
					a = uint16(label)
				}
				for _, v := range dirty {
					for b := pend[v]; b != 0; b &= b - 1 {
						full[(lo+bits.TrailingZeros64(b))*n+int(v)] = a
					}
				}
			}
			for {
				b := int(cursor.Add(1)) - 1
				if b >= batches {
					return
				}
				lo = b * 64
				hi := min(lo+64, n)
				fillNoJourney(full[lo*n : hi*n])
				for s := lo; s < hi; s++ {
					srcs[s-lo] = int32(s)
					full[s*n+s] = 0
				}
				ix.net.ArrivalGroups(srcs[:hi-lo], stamp)
			}
		}()
	}
	wg.Wait()
	ix.buildDur = time.Since(start)
	obsBuildNS.ObserveDuration(ix.buildDur)
	obsResident.Add(int64(n))
	obsResidentBytes.Add(FullTableBytes(n))
	obsComputes.Add(uint64(n))
	ix.computes.Add(uint64(n))
}

// fillNoJourney sets every entry of rows to noJourney by doubling copies.
func fillNoJourney(rows []uint16) {
	if len(rows) == 0 {
		return
	}
	rows[0] = noJourney
	for i := 1; i < len(rows); i *= 2 {
		copy(rows[i:], rows[:i])
	}
}

// Arrival returns the earliest arrival time of a journey from src to dst
// departing no earlier than start (start ≤ 1 is unrestricted), 0 when
// src == dst, or temporal.Unreachable when no such journey exists. src
// and dst must be valid vertices — the serving layer validates.
//
// Only ModeLRU computes rows here. ModeFull answers start = 1 from its
// 16-bit table and a late start with one point scan
// (temporal.EarliestArrivalTo), unless the table already says dst is
// unreachable: raising the departure floor only removes journeys. An
// entry saturated at 0xFFFE holds no exact arrival, so it costs a point
// scan at start = 1 too. ModeOff answers every query with a point scan.
func (ix *Index) Arrival(src, dst int, start int32) int32 {
	if start < 1 {
		start = 1
	}
	switch ix.mode {
	case ModeFull:
		a := ix.full[src*ix.n+dst]
		if a == noJourney {
			ix.hit()
			return temporal.Unreachable
		}
		if start == 1 && a != saturated {
			ix.hit()
			return int32(a)
		}
	case ModeLRU:
		return ix.lookup(src, dst, start)
	}
	ix.misses.Add(1)
	obsMisses.Inc()
	return ix.net.EarliestArrivalTo(src, dst, start)
}

// hit counts one query answered from a resident entry.
func (ix *Index) hit() {
	ix.hits.Add(1)
	obsHits.Inc()
}

// lookup is ModeLRU's row path: a resident-row hit, a coalesced wait, or
// a leader frontier compute whose row is stored.
func (ix *Index) lookup(src, dst int, start int32) int32 {
	k := key(src, start)
	ix.mu.Lock()
	if el, ok := ix.rows[k]; ok {
		a := el.Value.(*rowEntry).row[dst]
		ix.ll.MoveToFront(el)
		ix.mu.Unlock()
		ix.hit()
		return a
	}
	if f, ok := ix.inflight[k]; ok {
		f.refs.Add(1)
		ix.mu.Unlock()
		ix.misses.Add(1)
		ix.coalesced.Add(1)
		obsMisses.Inc()
		obsCoalesced.Inc()
		f.wg.Wait()
		a := f.row[dst]
		ix.release(f)
		return a
	}
	f := flightPool.Get().(*flight)
	f.wg.Add(1)
	f.refs.Store(1)
	f.row = ix.grabLocked()
	ix.inflight[k] = f
	ix.mu.Unlock()
	ix.misses.Add(1)
	obsMisses.Inc()
	if ix.computeHook != nil {
		ix.computeHook(src, start)
	}
	t0 := time.Now()
	ix.net.EarliestArrivalsFromInto(src, start, f.row)
	obsComputeNS.ObserveSince(t0)
	ix.computes.Add(1)
	obsComputes.Inc()
	ix.mu.Lock()
	delete(ix.inflight, k)
	ix.storeLocked(k, f.row)
	ix.mu.Unlock()
	f.wg.Done()
	a := f.row[dst]
	ix.release(f)
	return a
}

// grabLocked returns a zero-obligation row buffer, recycling evicted ones.
func (ix *Index) grabLocked() []int32 {
	if l := len(ix.free); l > 0 {
		row := ix.free[l-1]
		ix.free = ix.free[:l-1]
		return row
	}
	return make([]int32, ix.n)
}

// storeLocked copies row into a cache-owned buffer at the LRU front and
// evicts beyond maxRows. Copying keeps ownership simple: the flight's
// buffer stays with its readers, the cache's with the LRU.
func (ix *Index) storeLocked(k uint64, row []int32) {
	buf := ix.grabLocked()
	copy(buf, row)
	ix.rows[k] = ix.ll.PushFront(&rowEntry{key: k, row: buf})
	obsResident.Add(1)
	obsResidentBytes.Add(rowBytes(ix.n))
	for ix.ll.Len() > ix.maxRows {
		oldest := ix.ll.Back()
		ix.ll.Remove(oldest)
		ent := oldest.Value.(*rowEntry)
		delete(ix.rows, ent.key)
		ix.putFreeLocked(ent.row)
		ix.evictions.Add(1)
		obsEvictions.Inc()
		obsResident.Add(-1)
		obsResidentBytes.Add(-rowBytes(ix.n))
	}
}

// putFreeLocked recycles a buffer, bounded so a burst cannot pin memory.
func (ix *Index) putFreeLocked(row []int32) {
	if len(ix.free) < ix.freeCap {
		ix.free = append(ix.free, row)
	}
}

// release drops one reference to a flight; the last reader recycles the
// buffer and pools the flight.
func (ix *Index) release(f *flight) {
	if f.refs.Add(-1) != 0 {
		return
	}
	ix.mu.Lock()
	ix.putFreeLocked(f.row)
	ix.mu.Unlock()
	f.row = nil
	flightPool.Put(f)
}

// Net returns the indexed network.
func (ix *Index) Net() *temporal.Network { return ix.net }

// N returns the vertex count of the indexed network.
func (ix *Index) N() int { return ix.n }

// Stats is a point-in-time snapshot of one index.
type Stats struct {
	Mode         string `json:"mode"`
	N            int    `json:"n"`
	MaxRows      int    `json:"max_rows"`      // 0 outside ModeLRU
	ResidentRows int    `json:"resident_rows"` // n in ModeFull
	// ResidentBytes is the row storage held: 2n² for ModeFull's table,
	// 4n per resident LRU row.
	ResidentBytes int64  `json:"resident_bytes"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Coalesced     uint64 `json:"coalesced"`
	Evictions     uint64 `json:"evictions"`
	RowsComputed  uint64 `json:"rows_computed"`
	BuildMS       int64  `json:"build_ms"` // full-table build wall time
}

// Stats returns the snapshot.
func (ix *Index) Stats() Stats {
	ix.mu.Lock()
	resident := ix.ll.Len()
	ix.mu.Unlock()
	bytes := int64(resident) * rowBytes(ix.n)
	if ix.mode == ModeFull {
		resident += ix.n
		bytes += FullTableBytes(ix.n)
	}
	return Stats{
		Mode:          ix.mode.String(),
		N:             ix.n,
		MaxRows:       ix.maxRows,
		ResidentRows:  resident,
		ResidentBytes: bytes,
		Hits:          ix.hits.Load(),
		Misses:        ix.misses.Load(),
		Coalesced:     ix.coalesced.Load(),
		Evictions:     ix.evictions.Load(),
		RowsComputed:  ix.computes.Load(),
		BuildMS:       ix.buildDur.Milliseconds(),
	}
}
