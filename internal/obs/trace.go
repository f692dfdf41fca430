package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute: a key with either a string or an integer
// value. Attributes live in a fixed-size inline array on the span, so
// setting them never allocates — the record path stays 0 allocs/op.
type Attr struct {
	Key   string `json:"key"`
	Str   string `json:"str,omitempty"`
	Int   int64  `json:"int,omitempty"`
	IsInt bool   `json:"is_int,omitempty"`
}

// Value renders the attribute's value as a string.
func (a Attr) Value() string {
	if a.IsInt {
		return strconv.FormatInt(a.Int, 10)
	}
	return a.Str
}

// MaxSpanAttrs is the inline attribute capacity of a span; SetAttr calls
// beyond it are dropped. Four covers the engine's spans (worker, cell,
// lease id, error detail) without growing the record.
const MaxSpanAttrs = 4

// SpanRecord is one completed span as stored in the ring. Times are
// monotonic-clock readings relative to the tracer's creation, so records
// order and subtract cleanly even across wall-clock adjustments; the
// dump carries the tracer's wall-clock base so dumps from different
// processes merge onto one absolute timeline.
type SpanRecord struct {
	// Trace is the 128-bit id shared by every span of one logical
	// operation, across processes.
	Trace TraceID
	// ID is the span's process-unique id; Parent is the id of the
	// enclosing span, 0 for a root. A root opened via StartRemote keeps
	// the remote parent id, linking it under the caller's span.
	ID     uint64
	Parent uint64
	Name   string
	// StartNS is the span's start, nanoseconds since the tracer was
	// created (monotonic); DurNS is its duration in nanoseconds.
	StartNS int64
	DurNS   int64
	// Err is the span's error status, "" for success.
	Err string
	// Attrs[:NAttrs] are the span's attributes.
	Attrs  [MaxSpanAttrs]Attr
	NAttrs uint8
}

// Tracer records completed spans into a fixed-size ring buffer: the most
// recent Capacity spans survive, older ones are overwritten. Create with
// NewTracer; StartSpan uses the process default tracer.
type Tracer struct {
	base     time.Time // monotonic anchor
	baseUnix int64     // wall clock at creation, for cross-process merge
	proc     string    // host-pid, identifies this process in merged dumps
	capacity int       // the ring's, fixed at construction: read without mu
	ids      atomic.Uint64

	mu    sync.Mutex
	ring  []SpanRecord
	next  int    // ring slot the next completed span lands in
	total uint64 // completed spans ever recorded
}

// NewTracer returns a tracer retaining the last capacity completed spans;
// capacity < 1 panics.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		panic("obs: tracer capacity must be >= 1")
	}
	now := time.Now()
	host, _ := os.Hostname()
	t := &Tracer{
		base:     now,
		baseUnix: now.UnixNano(),
		proc:     fmt.Sprintf("%s-%d", host, os.Getpid()),
		capacity: capacity,
		ring:     make([]SpanRecord, 0, capacity),
	}
	// Seed span ids randomly so ids from different processes, which meet
	// in merged dumps, do not collide the way counters all starting at 1
	// would.
	t.ids.Store(rand.Uint64())
	return t
}

// defaultTracer backs StartSpan and TraceHandler. 4096 spans of
// request/job/cell granularity cover minutes of busy-service history.
var defaultTracer = NewTracer(4096)

// DefaultTracer returns the process default tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// Span is an in-flight operation. The zero value is a no-op span: Child
// returns another no-op, SetAttr and End do nothing, so tracing can be
// threaded through code paths that sometimes run without a tracer.
type Span struct {
	t      *Tracer
	trace  TraceID
	id     uint64
	parent uint64
	name   string
	start  time.Time
	errMsg string
	attrs  [MaxSpanAttrs]Attr
	nattrs uint8
}

// nextID returns a fresh nonzero span id.
func (t *Tracer) nextID() uint64 {
	for {
		if id := t.ids.Add(1); id != 0 {
			return id
		}
	}
}

// Start opens a root span under a fresh trace id.
func (t *Tracer) Start(name string) Span {
	return Span{t: t, trace: NewTraceID(), id: t.nextID(), name: name, start: time.Now()}
}

// StartSpan opens a root span on the default tracer.
func StartSpan(name string) Span { return defaultTracer.Start(name) }

// StartRemote opens a span that continues the trace in sc — the receiving
// half of Extract: the new span keeps sc's trace id and is parented to
// sc's span, stitching this process's work under the caller's. An invalid
// sc degrades to Start.
func (t *Tracer) StartRemote(name string, sc SpanContext) Span {
	if !sc.Valid() {
		return t.Start(name)
	}
	return Span{t: t, trace: sc.Trace, id: t.nextID(), parent: sc.Span, name: name, start: time.Now()}
}

// StartRemoteSpan opens a remote-parented span on the default tracer.
func StartRemoteSpan(name string, sc SpanContext) Span {
	return defaultTracer.StartRemote(name, sc)
}

// Child opens a span nested under s, in the same trace.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return Span{t: s.t, trace: s.trace, id: s.t.nextID(), parent: s.id, name: name, start: time.Now()}
}

// Context returns the span's propagation context, the value Inject puts
// on the wire. The zero span returns an invalid context.
func (s Span) Context() SpanContext {
	return SpanContext{Trace: s.trace, Span: s.id}
}

// SetAttr attaches a string attribute. Attributes beyond MaxSpanAttrs
// are dropped; the inline array keeps the call allocation-free.
func (s *Span) SetAttr(key, val string) {
	if s.t == nil || s.nattrs >= MaxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Str: val}
	s.nattrs++
}

// SetAttrInt attaches an integer attribute without formatting it — the
// hot path defers rendering to dump time.
func (s *Span) SetAttrInt(key string, val int64) {
	if s.t == nil || s.nattrs >= MaxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Int: val, IsInt: true}
	s.nattrs++
}

// SetError marks the span failed. A nil err is a no-op, so callers can
// defer-set unconditionally.
func (s *Span) SetError(err error) {
	if s.t == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// End completes the span and records it into the ring.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := time.Now()
	rec := SpanRecord{
		Trace:   s.trace,
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNS: s.start.Sub(s.t.base).Nanoseconds(),
		DurNS:   end.Sub(s.start).Nanoseconds(),
		Err:     s.errMsg,
		Attrs:   s.attrs,
		NAttrs:  s.nattrs,
	}
	t := s.t
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
	}
	t.next++
	if t.next == cap(t.ring) {
		t.next = 0
	}
	t.total++
	t.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	if len(t.ring) == cap(t.ring) {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Total returns the number of spans ever completed on this tracer.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// TraceFilter selects spans from a dump. The zero value selects all
// retained spans.
type TraceFilter struct {
	// Trace, when nonzero, keeps only spans of that trace.
	Trace TraceID
	// Name, when nonempty, keeps only spans with that exact name.
	Name string
	// MinDur, when positive, keeps only spans at least that long.
	MinDur time.Duration
	// Limit, when positive, keeps only the most recent Limit matches.
	Limit int
}

func (f TraceFilter) match(r *SpanRecord) bool {
	if !f.Trace.IsZero() && r.Trace != f.Trace {
		return false
	}
	if f.Name != "" && r.Name != f.Name {
		return false
	}
	if f.MinDur > 0 && r.DurNS < f.MinDur.Nanoseconds() {
		return false
	}
	return true
}

// Filtered returns the retained spans matching f, oldest first.
func (t *Tracer) Filtered(f TraceFilter) []SpanRecord {
	all := t.Snapshot()
	out := all[:0:len(all)]
	for i := range all {
		if f.match(&all[i]) {
			out = append(out, all[i])
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// SpanJSON is the wire shape of one span in a trace dump.
type SpanJSON struct {
	Trace   string            `json:"trace,omitempty"`
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Err     string            `json:"err,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// TraceDump is the JSON document GET /debug/trace serves and
// cmd/traceview consumes.
type TraceDump struct {
	// Proc identifies the dumping process (host-pid); BaseUnixNS is its
	// tracer's wall clock at creation, the anchor that places the
	// monotonic StartNS readings of different processes on one absolute
	// timeline.
	Proc       string `json:"proc"`
	BaseUnixNS int64  `json:"base_unix_ns"`
	// Capacity is the ring size; Recorded the spans ever completed. When
	// Recorded > Capacity the oldest spans have been overwritten.
	Capacity int        `json:"capacity"`
	Recorded uint64     `json:"recorded"`
	Spans    []SpanJSON `json:"spans"`
}

func (r *SpanRecord) toJSON() SpanJSON {
	j := SpanJSON{
		ID:      r.ID,
		Parent:  r.Parent,
		Name:    r.Name,
		StartNS: r.StartNS,
		DurNS:   r.DurNS,
		Err:     r.Err,
	}
	if !r.Trace.IsZero() {
		j.Trace = r.Trace.String()
	}
	if r.NAttrs > 0 {
		j.Attrs = make(map[string]string, r.NAttrs)
		for _, a := range r.Attrs[:r.NAttrs] {
			j.Attrs[a.Key] = a.Value()
		}
	}
	return j
}

// Dump snapshots the spans matching f as a wire-format document.
func (t *Tracer) Dump(f TraceFilter) TraceDump {
	recs := t.Filtered(f)
	spans := make([]SpanJSON, len(recs))
	for i := range recs {
		spans[i] = recs[i].toJSON()
	}
	return TraceDump{
		Proc:       t.proc,
		BaseUnixNS: t.baseUnix,
		Capacity:   t.capacity,
		Recorded:   t.Total(),
		Spans:      spans,
	}
}

// DumpJSON writes all retained spans as one JSON document.
func (t *Tracer) DumpJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Dump(TraceFilter{}))
}

// traceDumpWriteErrors counts /debug/trace responses that failed mid-body
// — the status line is gone by then, so a counter is the only record.
var traceDumpWriteErrors = NewCounter("obs_trace_dump_write_errors_total",
	"Trace dump responses that failed while writing the body.")

// parseTraceQuery builds a TraceFilter from /debug/trace query params:
// ?trace= (32-hex trace id), ?name= (exact span name), ?min_dur_us=
// (minimum duration, integer microseconds), ?limit= (most recent N).
func parseTraceQuery(r *http.Request) (TraceFilter, error) {
	var f TraceFilter
	q := r.URL.Query()
	if v := q.Get("trace"); v != "" {
		id, err := ParseTraceID(v)
		if err != nil {
			return f, err
		}
		f.Trace = id
	}
	f.Name = q.Get("name")
	if v := q.Get("min_dur_us"); v != "" {
		us, err := strconv.ParseInt(v, 10, 64)
		if err != nil || us < 0 {
			return f, fmt.Errorf("obs: bad min_dur_us %q", v)
		}
		f.MinDur = time.Duration(us) * time.Microsecond
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return f, fmt.Errorf("obs: bad limit %q", v)
		}
		f.Limit = n
	}
	return f, nil
}

// TraceHandler serves the tracer's ring. Plain GET returns the JSON
// dump; ?trace=/?name=/?min_dur_us=/?limit= filter it and ?view=tree
// renders the matching spans as indented per-trace trees instead. The
// document is rendered to memory first so an encoding failure still
// produces a 500 rather than a silently truncated 200.
func (t *Tracer) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, err := parseTraceQuery(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		dump := t.Dump(f)
		var body []byte
		switch r.URL.Query().Get("view") {
		case "", "json":
			body, err = json.MarshalIndent(dump, "", "  ")
			w.Header().Set("Content-Type", "application/json")
		case "tree":
			body = appendTraceText(nil, AssembleTraces(dump.Flatten()))
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		default:
			http.Error(w, "obs: view must be json or tree", http.StatusBadRequest)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		if _, err := w.Write(body); err != nil {
			traceDumpWriteErrors.Inc()
		}
	})
}

// TraceHandler serves the default tracer (GET /debug/trace in cmd/serve).
func TraceHandler() http.Handler { return defaultTracer.TraceHandler() }
