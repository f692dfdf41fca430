package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qindex"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/temporal"
)

// queryWorkload is journey-query serving: a closed loop of GET /query
// requests from one in-process client over queryConns loopback
// connections to the service handler, answered from a full arrival
// index.
var queryWorkload = queryBench{}

type queryBench struct{}

func (queryBench) setups() int { return 5 }

const (
	queryConns = 2
	// lateShare of requests depart late (start > 1); ModeFull caches only
	// start = 1, so those always run the frontier kernel.
	lateShare = 0.05
	zipfS     = 1.1
	// reqPerConnSec sizes a run: each connection sends this many requests
	// per nominal second.
	reqPerConnSec = 10000
	// sampleEvery is the traced run's request sampling rate for spans.
	sampleEvery = 256
)

// querySize is the served network's vertex count.
func querySize(o options) int {
	if o.toy {
		return 256
	}
	return 4096
}

// queryNetwork is the served network in its tnet encoding, as
// `gen -family gnp -n N -seed S` writes it: G(n, 2·ln n/n) with one
// uniform label per edge from {1, …, n}.
func queryNetwork(seed uint64, n int) ([]byte, error) {
	stream := rng.New(seed)
	g, err := graph.Family("gnp", n, graph.FamilyOpts{}, stream)
	if err != nil {
		return nil, err
	}
	m, err := avail.Build("uniform", avail.Params{Lifetime: g.N()})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = avail.Network(m, g, stream).Encode(&buf)
	return buf.Bytes(), err
}

// pointQuery is one generated request.
type pointQuery struct {
	src, dst int32
	start    int32
}

// queryPlan is the request sequence of one connection: Zipf(1.1) sources
// (rank mapped to vertex through a seeded permutation), uniform
// destinations, and a late start uniform on [2, lifetime/2] for
// lateShare of the requests.
func queryPlan(seed uint64, conn, count, n, lifetime int) []pointQuery {
	r := rand.New(rand.NewSource(int64(passSeed(seed, 1<<24+conn))))
	perm := r.Perm(n)
	z := rand.NewZipf(r, zipfS, 1, uint64(n-1))
	qs := make([]pointQuery, count)
	for i := range qs {
		q := pointQuery{src: int32(perm[z.Uint64()]), dst: int32(r.Intn(n)), start: 1}
		if r.Float64() < lateShare {
			q.start = int32(2 + r.Intn(max(1, lifetime/2-1)))
		}
		qs[i] = q
	}
	return qs
}

// server is the service under test on a loopback listener.
type server struct {
	net     *temporal.Network
	ix      *qindex.Index
	mgr     *service.Manager
	srv     *http.Server
	base    string
	served  chan error
	decode  time.Duration
	build   time.Duration
	handler *timedHandler // traced runs only
}

// startServer decodes the network, builds its full arrival index, and
// serves the service handler on a fresh loopback listener — what
// `serve -net` does before its first answer. With tr set it also times
// and traces every request in the handler.
func startServer(encoded []byte, tr *tracer) (*server, error) {
	s := &server{served: make(chan error, 1)}
	span := tr.root("serve.setup")
	defer span.End()
	ds := span.Child("temporal.Decode")
	t0 := time.Now()
	nw, err := temporal.Decode(bytes.NewReader(encoded))
	s.decode = time.Since(t0)
	ds.End()
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	s.net = nw
	bs := span.Child("qindex.New")
	t1 := time.Now()
	s.ix = qindex.New(nw, qindex.Options{Mode: qindex.ModeFull, MemBudget: qindex.FullTableBytes(nw.Graph().N())})
	s.build = time.Since(t1)
	bs.End()
	s.mgr = service.New(service.Options{Workers: 1})
	var h http.Handler = service.NewHandlerWith(s.mgr, service.NewQueryEngine(s.ix))
	if tr != nil {
		s.handler = &timedHandler{inner: h, tr: tr, samples: newSampler()}
		h = s.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its serve loop to end.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.mgr.Close()
	return err
}

// timedHandler wraps the service handler in the traced run: it times
// every request, opens a server span for sampled requests continuing the
// client's trace, and publishes the handler time of each request before
// the body is written, so the client can subtract it from its
// round-trip time.
type timedHandler struct {
	inner   http.Handler
	tr      *tracer
	samples *sampler
	spent   sync.Map // request id → time.Duration up to the body write
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Bench-Id")
	if id == "" { // an untimed warm-up request
		h.inner.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	var span obs.Span
	if sc, ok := obs.Extract(r.Header); ok {
		span = h.tr.remote("service.handler", sc)
	}
	h.inner.ServeHTTP(&spentWriter{ResponseWriter: w, h: h, id: id, t0: t0}, r)
	span.End()
	h.samples.add("handler_us", float64(time.Since(t0))/1e3)
}

// spentWriter records the handler's elapsed time when the body is
// written.
type spentWriter struct {
	http.ResponseWriter
	h  *timedHandler
	id string
	t0 time.Time
}

func (w *spentWriter) Write(p []byte) (int, error) {
	w.h.spent.Store(w.id, time.Since(w.t0))
	return w.ResponseWriter.Write(p)
}

// answer is the part of a GET /query response the checks read.
type answer struct {
	Src     int   `json:"src"`
	Dst     int   `json:"dst"`
	Start   int32 `json:"start"`
	Arrival int32 `json:"arrival"`
	Reached bool  `json:"reached"`
}

// connLog is one connection's record of a load phase.
type connLog struct {
	lat             []float64       // ms, answered requests
	done            []time.Duration // completion of each answered request, since the load began
	arrival         []int32         // served arrival per request; -2 for failed requests
	failed          int
	rttMinusHandler []float64 // µs, traced runs
}

// load runs the closed loop: each connection sends its plan's requests
// one after another, timing each from send to body read.
func load(ctx context.Context, base string, plans [][]pointQuery, tr *tracer, h *timedHandler) ([]*connLog, error) {
	logs := make([]*connLog, len(plans))
	errs := make([]error, len(plans))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range plans {
		logs[c] = &connLog{arrival: make([]int32, len(plans[c])), lat: make([]float64, 0, len(plans[c]))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = runConn(ctx, base, start, c, plans[c], logs[c], tr, h)
		}()
	}
	wg.Wait()
	return logs, errors.Join(errs...)
}

func runConn(ctx context.Context, base string, start time.Time, conn int, plan []pointQuery, log *connLog, tr *tracer, h *timedHandler) error {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	var url []byte
	var body bytes.Buffer
	for i, q := range plan {
		url = append(url[:0], base...)
		url = append(url, "/query?src="...)
		url = strconv.AppendInt(url, int64(q.src), 10)
		url = append(url, "&dst="...)
		url = strconv.AppendInt(url, int64(q.dst), 10)
		url = append(url, "&start="...)
		url = strconv.AppendInt(url, int64(q.start), 10)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, string(url), nil)
		if err != nil {
			return err
		}
		var span obs.Span
		id := ""
		if h != nil {
			id = strconv.Itoa(conn) + "-" + strconv.Itoa(i)
			req.Header.Set("X-Bench-Id", id)
			if i%sampleEvery == 0 {
				span = tr.root("query.request")
				obs.Inject(span.Context(), req.Header)
			}
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			log.failed++
			log.arrival[i] = -2
			span.SetError(err)
			span.End()
			continue
		}
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		rtt := time.Since(t0)
		resp.Body.Close()
		span.End()
		var a answer
		if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body.Bytes(), &a) != nil ||
			a.Src != int(q.src) || a.Dst != int(q.dst) || a.Start != q.start || a.Reached != (a.Arrival >= 0) {
			log.failed++
			log.arrival[i] = -2
			continue
		}
		log.arrival[i] = a.Arrival
		log.lat = append(log.lat, float64(rtt)/1e6)
		log.done = append(log.done, time.Since(start))
		if h != nil {
			if spent, ok := h.spent.LoadAndDelete(id); ok {
				log.rttMinusHandler = append(log.rttMinusHandler, float64(rtt-spent.(time.Duration))/1e3)
			}
		}
	}
	return nil
}

// oracle answers earliest-arrival queries by its own scan of the
// network's time edges in label order: it shares no code with the
// index's serving path (the batch table kernel and the frontier kernel).
type oracle struct {
	net      *temporal.Network
	directed bool
	us, vs   []int32
	ls       []int32
}

func newOracle(nw *temporal.Network) *oracle {
	o := &oracle{net: nw, directed: nw.Graph().Directed()}
	nw.TimeEdges(func(_, u, v int, l int32) {
		o.us = append(o.us, int32(u))
		o.vs = append(o.vs, int32(v))
		o.ls = append(o.ls, l)
	})
	return o
}

// row fills arr with the earliest arrival at every vertex of a journey
// from src whose first hop departs no earlier than start: 0 at src,
// temporal.Unreachable where no journey exists. start = 1 uses the
// network's linear-scan kernel, the repository's own oracle.
func (o *oracle) row(src int, start int32, arr []int32) {
	if start <= 1 {
		o.net.EarliestArrivalsLinearInto(src, arr)
		return
	}
	for i := range arr {
		arr[i] = temporal.Unreachable
	}
	// Labels are scanned in non-decreasing order and a hop needs a label
	// strictly after the arrival at its tail, so every arrival is final
	// when the scan passes it; src counts as reached just before start.
	arr[src] = start - 1
	first, _ := slices.BinarySearch(o.ls, start)
	for i := first; i < len(o.ls); i++ {
		l, u, v := o.ls[i], o.us[i], o.vs[i]
		if arr[u] < l && l < arr[v] {
			arr[v] = l
		} else if !o.directed && arr[v] < l && l < arr[u] {
			arr[u] = l
		}
	}
	arr[src] = 0
}

// checkAnswers compares every answered request with the oracle, one
// oracle row per distinct (src, start), and returns the mismatches.
func checkAnswers(o *oracle, plans [][]pointQuery, logs []*connLog) int {
	type ref struct{ c, i int }
	byRow := make(map[[2]int32][]ref)
	for c, plan := range plans {
		for i, q := range plan {
			if logs[c].arrival[i] != -2 {
				k := [2]int32{q.src, q.start}
				byRow[k] = append(byRow[k], ref{c, i})
			}
		}
	}
	arr := make([]int32, o.net.Graph().N())
	bad := 0
	for k, refs := range byRow {
		o.row(int(k[0]), k[1], arr)
		for _, r := range refs {
			want := arr[plans[r.c][r.i].dst]
			if want == temporal.Unreachable {
				want = -1
			}
			if logs[r.c].arrival[r.i] != want {
				bad++
			}
		}
	}
	return bad
}

// queryPlans builds every connection's request sequence for a run.
func queryPlans(o options, nw *temporal.Network) [][]pointQuery {
	perConn := int(o.seconds * reqPerConnSec)
	if o.toy {
		perConn = 2000
	}
	plans := make([][]pointQuery, queryConns)
	for c := range plans {
		plans[c] = queryPlan(o.seed, c, perConn, nw.Graph().N(), nw.Lifetime())
	}
	return plans
}

// loadPhase is one measured load run against a server.
type loadPhase struct {
	logs     []*connLog
	ph       phase
	answered int
	failed   int
	stats0   qindex.Stats
	stats1   qindex.Stats
	rss      float64 // peak resident set during the load, MB
}

func runLoad(ctx context.Context, s *server, plans [][]pointQuery, tr *tracer) (*loadPhase, error) {
	lp := &loadPhase{stats0: s.ix.Stats()}
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	m := startMeter()
	rss.take()
	logs, err := load(ctx, s.base, plans, tr, s.handler)
	lp.rss = rss.take()
	lp.ph = m.stop()
	rss.close()
	lp.stats1 = s.ix.Stats()
	if err != nil {
		return nil, err
	}
	lp.logs = logs
	for _, l := range logs {
		lp.answered += len(l.lat)
		lp.failed += l.failed
	}
	if lp.answered == 0 {
		return nil, fmt.Errorf("no request was answered")
	}
	return lp, nil
}

// warm sends the first 200 requests of each plan once, untimed, so
// connections, handler and the late-start path are warm when timing
// starts.
func warm(ctx context.Context, s *server, plans [][]pointQuery) error {
	head := make([][]pointQuery, len(plans))
	for c, p := range plans {
		head[c] = p[:min(200, len(p))]
	}
	_, err := load(ctx, s.base, head, nil, nil)
	return err
}

// metrics are the end-to-end figures of a load phase, with the
// wall-clock throughput (trials_per_s = qps) that only the note and the
// overhead lines print.
func (lp *loadPhase) metrics() (map[string]float64, string, error) {
	var lat []float64
	for _, l := range lp.logs {
		lat = append(lat, l.lat...)
	}
	p50, _ := percentileOf(lat, 50)
	p99, ok := percentile(lat, 99)
	if !ok {
		return nil, "", fmt.Errorf("only %d latencies, too few for a p99 with %d beyond it", len(lat), minBeyond)
	}
	var done []time.Duration
	for _, l := range lp.logs {
		done = append(done, l.done...)
	}
	n := float64(lp.answered)
	qps := chunkRate(done)
	if qps == 0 {
		qps = n / lp.ph.wall.Seconds()
	}
	cpu := lp.ph.cpu.Seconds()
	return map[string]float64{
		"trials_per_s":     qps,
		"qps":              qps,
		"cpu_ms_per_trial": cpu * 1e3 / n,
		"cpu_us_per_query": cpu * 1e6 / n,
		"p50_ms":           p50,
		"p99_ms":           p99,
		"peak_rss_mb":      lp.rss,
	}, fmt.Sprintf("request latency: %d samples; wall-clock throughput (not gated): %.6g queries/s", len(lat), qps), nil
}

// qpsChunk is the number of consecutive completions over which
// throughput is measured.
const qpsChunk = 5000

// chunkRate returns the median, over chunks of qpsChunk consecutive
// completions, of each chunk's completions per second, so that a burst of
// host steal in one part of a load does not move it; 0 when the load has
// fewer than three chunks.
func chunkRate(done []time.Duration) float64 {
	slices.Sort(done)
	var rates []float64
	for i := qpsChunk; i < len(done); i += qpsChunk {
		if d := done[i] - done[i-qpsChunk]; d > 0 {
			rates = append(rates, qpsChunk/d.Seconds())
		}
	}
	if len(rates) < 3 {
		return 0
	}
	return median(rates)
}

func (queryBench) untraced(ctx context.Context, o options, logw io.Writer) (report, error) {
	encoded, err := queryNetwork(o.seed, querySize(o))
	if err != nil {
		return report{}, err
	}
	s, err := startServer(encoded, nil)
	if err != nil {
		return report{}, err
	}
	defer s.close()
	plans := queryPlans(o, s.net)
	if err := warm(ctx, s, plans); err != nil {
		return report{}, err
	}
	calib0 := calibrate()
	lp, err := runLoad(ctx, s, plans, nil)
	if err != nil {
		return report{}, err
	}
	calib1 := calibrate()
	vals, note, err := lp.metrics()
	if err != nil {
		return report{}, err
	}
	bad := checkAnswers(newOracle(s.net), plans, lp.logs)
	if bad > 0 {
		fmt.Fprintf(logw, "check failed: %d answers differ from the oracle\n", bad)
	}
	attempted := 0
	for _, p := range plans {
		attempted += len(p)
	}
	return report{vals: vals, attempted: attempted, failed: lp.failed + bad,
		host: newHostRecord(lp.ph, (calib0+calib1)/2), notes: []string{note}}, nil
}

// traced runs the load untraced and then traced against one server
// each, reports the tracing overhead, and measures the layers: decode and
// index build spans, handler and client time, and the run's query
// sequence replayed straight into the index and the frontier kernel.
func (queryBench) traced(ctx context.Context, o options, logw io.Writer) (report, error) {
	encoded, err := queryNetwork(o.seed, querySize(o))
	if err != nil {
		return report{}, err
	}
	o.seconds /= 2
	calib0 := calibrate()
	su, err := startServer(encoded, nil)
	if err != nil {
		return report{}, err
	}
	plans := queryPlans(o, su.net)
	err = warm(ctx, su, plans)
	var lu *loadPhase
	if err == nil {
		lu, err = runLoad(ctx, su, plans, nil)
	}
	su.close()
	if err != nil {
		return report{}, err
	}
	runtime.GC()

	tr := newTracer()
	s, err := startServer(encoded, tr)
	if err != nil {
		return report{}, err
	}
	defer s.close()
	if err := warm(ctx, s, plans); err != nil {
		return report{}, err
	}
	lt, err := runLoad(ctx, s, plans, tr)
	if err != nil {
		return report{}, err
	}
	calib1 := calibrate()
	eu, _, err := lu.metrics()
	if err != nil {
		return report{}, err
	}
	et, _, err := lt.metrics()
	if err != nil {
		return report{}, err
	}
	printOverhead(logw, eu, et)

	orc := newOracle(s.net)
	bad := checkAnswers(orc, plans, lu.logs) + checkAnswers(orc, plans, lt.logs)
	if bad > 0 {
		fmt.Fprintf(logw, "check failed: %d answers differ from the oracle\n", bad)
	}
	attempted := 0
	for _, p := range plans {
		attempted += 2 * len(p)
	}

	vals := zeroLayers()
	vals["temporal.decode_ms"] = float64(s.decode) / 1e6
	vals["qindex.build_ms"] = float64(s.build) / 1e6
	hs := s.handler.samples.get("handler_us")
	vals["service.handler_us.p50"], _ = percentileOf(hs, 50)
	vals["service.handler_us.p99"], _ = percentile(hs, 99)
	var client []float64
	for _, l := range lt.logs {
		client = append(client, l.rttMinusHandler...)
	}
	vals["http.client_us.p50"], _ = percentileOf(client, 50)
	vals["qindex.hits"] = float64(lt.stats1.Hits - lt.stats0.Hits)
	vals["qindex.misses"] = float64(lt.stats1.Misses - lt.stats0.Misses)
	vals["qindex.coalesced"] = float64(lt.stats1.Coalesced - lt.stats0.Coalesced)
	replayLayers(s, plans, vals)
	calib := (calib0 + calib1) / 2
	runtimeLayers(lu.ph, calib, float64(lu.answered), vals) // the untraced load's runtime and host figures

	recs, err := tr.records()
	if err != nil {
		return report{}, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-query-%d.json", o.seed))
	if err := tr.dump(path); err != nil {
		return report{}, err
	}
	return report{vals: vals, attempted: attempted, failed: lu.failed + lt.failed + bad,
		host:  newHostRecord(lu.ph, calib),
		notes: []string{fmt.Sprintf("span dump: %s (%d spans; read with go run ./cmd/traceview %s)", path, len(recs), path)}}, nil
}

// replaySink keeps replayed answers live.
var replaySink int64

// replayLayers replays the run's query sequence straight into the index,
// timing start = 1 hits in groups of 64 (one is shorter than the clock's
// resolution) and every late start on its own, then runs the frontier
// kernel on each late (src, start) pair.
func replayLayers(s *server, plans [][]pointQuery, vals map[string]float64) {
	var hits, late, frontier []float64
	var group []pointQuery
	flush := func() {
		t0 := time.Now()
		for _, q := range group {
			replaySink += int64(s.ix.Arrival(int(q.src), int(q.dst), q.start))
		}
		hits = append(hits, float64(time.Since(t0))/float64(len(group)))
		group = group[:0]
	}
	row := make([]int32, s.net.Graph().N())
	for _, plan := range plans {
		for _, q := range plan {
			if q.start == 1 {
				if group = append(group, q); len(group) == 64 {
					flush()
				}
				continue
			}
			t0 := time.Now()
			replaySink += int64(s.ix.Arrival(int(q.src), int(q.dst), q.start))
			late = append(late, float64(time.Since(t0))/1e3)
			t1 := time.Now()
			s.net.EarliestArrivalsFromInto(int(q.src), q.start, row)
			frontier = append(frontier, float64(time.Since(t1))/1e3)
		}
	}
	if len(group) > 0 {
		flush()
	}
	vals["qindex.hit_ns.p50"], _ = percentileOf(hits, 50)
	vals["qindex.late_us.p50"], _ = percentileOf(late, 50)
	vals["qindex.late_us.p99"], _ = percentile(late, 99)
	vals["temporal.frontier_us.p50"], _ = percentileOf(frontier, 50)
}

// setup is what `serve -net` pays before its first answer: decode the
// network, build the full index, listen, and answer one query, which is
// checked against the oracle.
func (queryBench) setup(ctx context.Context, o options, j int) (setupReport, error) {
	encoded, err := queryNetwork(o.seed, querySize(o))
	if err != nil {
		return setupReport{}, err
	}
	plan := queryPlan(o.seed, queryConns+j, 1, querySize(o), querySize(o))
	runtime.GC()
	t0 := time.Now()
	s, err := startServer(encoded, nil)
	if err != nil {
		return setupReport{}, err
	}
	defer s.close()
	logs, err := load(ctx, s.base, [][]pointQuery{plan}, nil, nil)
	secs := time.Since(t0).Seconds()
	if err != nil {
		return setupReport{}, err
	}
	failed := logs[0].failed + checkAnswers(newOracle(s.net), [][]pointQuery{plan}, logs)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "check failed: set-up query %+v answered %d\n", plan[0], logs[0].arrival[0])
	}
	return setupReport{Seconds: secs, Attempted: 1, Failed: failed}, nil
}
