package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/temporal"
)

func testMux(t *testing.T, pprofOn bool) http.Handler {
	t.Helper()
	m := service.New(service.Options{Workers: 1})
	t.Cleanup(m.Close)
	return newMux(m, nil, pprofOn)
}

// TestServerTimeouts pins the http.Server hardening: without IdleTimeout
// every keep-alive connection from pollers and sweep workers pins a file
// descriptor forever once idle.
func TestServerTimeouts(t *testing.T) {
	srv := newServer(":0", http.NewServeMux())
	if srv.ReadTimeout != 30*time.Second {
		t.Errorf("ReadTimeout = %v, want 30s", srv.ReadTimeout)
	}
	if srv.WriteTimeout != 5*time.Minute {
		t.Errorf("WriteTimeout = %v, want 5m", srv.WriteTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.Addr != ":0" {
		t.Errorf("Addr = %q", srv.Addr)
	}
}

// TestMetricsEndpoint asserts GET /metrics serves parseable Prometheus
// text covering every instrumented layer. The instrument families are
// registered at package init, so they are present (at zero) even before
// any job runs.
func TestMetricsEndpoint(t *testing.T) {
	h := testMux(t, false)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics → %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, series := range []string{
		"sim_trials_started_total",
		"sim_batch_resample_trials_total",
		`temporal_index_builds_total{index="timeedges"}`,
		"sweep_cells_completed_total",
		"sweep_batch_size_count",
		"service_jobs_submitted_total",
		"service_queue_depth",
		"sweep_lease_granted_total",
		"sweep_lease_expired_total",
		"sweep_leases_active",
		"sweep_duplicate_cells_total",
		"service_sweep_ckpt_write_errors_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	if _, err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("scrape unparseable: %v", err)
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	h := testMux(t, false)
	obs.StartSpan("serve_test_span").End()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/trace → %d", rec.Code)
	}
	var dump struct {
		Capacity int               `json:"capacity"`
		Recorded uint64            `json:"recorded"`
		Spans    []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if dump.Capacity < 1 || dump.Recorded < 1 {
		t.Fatalf("dump = %+v", dump)
	}
}

func TestPprofGating(t *testing.T) {
	for _, on := range []bool{false, true} {
		h := testMux(t, on)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
		if on && rec.Code != http.StatusOK {
			t.Fatalf("-pprof on: GET /debug/pprof/ → %d", rec.Code)
		}
		if !on && rec.Code != http.StatusNotFound {
			t.Fatalf("-pprof off: GET /debug/pprof/ → %d, want 404", rec.Code)
		}
	}
}

// TestAccessLog drives the logging middleware and asserts the structured
// record carries the response's real status and byte count.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	})
	rec := httptest.NewRecorder()
	logRequests(logger, inner).ServeHTTP(rec, httptest.NewRequest("GET", "/teapot", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "short and stout" {
		t.Fatalf("middleware altered the response: %d %q", rec.Code, rec.Body.String())
	}
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/teapot", "status=418", "bytes=15"} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %q: %s", want, line)
		}
	}
}

// TestQueryMode drives the -net path end to end: encode a network to
// disk, build the engine the way main does, and serve /query and
// /query/stats through the full serve mux, checking the qindex metric
// families land in /metrics.
func TestQueryMode(t *testing.T) {
	g := graph.Grid(3, 3)
	stream := rng.New(9)
	sets := make([][]int, g.M())
	for e := range sets {
		sets[e] = []int{1 + stream.Intn(8), 1 + stream.Intn(8)}
	}
	net := temporal.MustNew(g, 8, temporal.LabelingFromSets(sets))
	path := filepath.Join(t.TempDir(), "q.tnet")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	qe, err := buildQueryEngine(path, "full", 64)
	if err != nil {
		t.Fatalf("buildQueryEngine: %v", err)
	}
	m := service.New(service.Options{Workers: 1})
	t.Cleanup(m.Close)
	h := newMux(m, qe, false)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/query?src=0&dst=8", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /query → %d: %s", rec.Code, rec.Body.String())
	}
	var ans struct {
		Arrival int32 `json:"arrival"`
		Reached bool  `json:"reached"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		t.Fatalf("bad answer: %v", err)
	}
	if want := net.EarliestArrivals(0)[8]; want == temporal.Unreachable {
		if ans.Reached {
			t.Fatalf("want unreachable, got %+v", ans)
		}
	} else if !ans.Reached || ans.Arrival != want {
		t.Fatalf("arrival %d reached=%v, want %d", ans.Arrival, ans.Reached, want)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/query/stats", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"mode":"full"`) {
		t.Fatalf("GET /query/stats → %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, series := range []string{"qindex_hits_total", "qindex_rows_computed_total", "qindex_resident_rows", "qindex_resident_bytes"} {
		if !strings.Contains(rec.Body.String(), series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}

// TestBuildQueryEngineErrors covers the no-op and failure paths.
func TestBuildQueryEngineErrors(t *testing.T) {
	if qe, err := buildQueryEngine("", "auto", 1); qe != nil || err != nil {
		t.Fatalf("empty path → (%v, %v), want (nil, nil)", qe, err)
	}
	if _, err := buildQueryEngine("nope.tnet", "banana", 1); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := buildQueryEngine(filepath.Join(t.TempDir(), "missing.tnet"), "auto", 1); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.tnet")
	if err := os.WriteFile(bad, []byte("not a tnet"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildQueryEngine(bad, "auto", 1); err == nil {
		t.Fatal("garbage network accepted")
	}
	// Budgets that cannot be one fail before the network is read, and
	// without -net too.
	for _, path := range []string{bad, ""} {
		for _, mib := range []int64{0, -1, maxIndexMiB + 1, math.MaxInt64} {
			if _, err := buildQueryEngine(path, "auto", mib); err == nil || !strings.Contains(err.Error(), "-qindex-mem") {
				t.Fatalf("%q, -qindex-mem %d → %v, want a budget error", path, mib, err)
			}
		}
	}
	if _, err := buildQueryEngine("", "banana", 1); err == nil {
		t.Fatal("bad mode accepted without -net")
	}
}

// TestConcurrentScrape races /metrics scrapes against request traffic on
// the instrumented service mux — run under -race this is the
// shared-registry concurrency check at the endpoint level.
func TestConcurrentScrape(t *testing.T) {
	h := testMux(t, false)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			}
		}()
	}
	for i := 0; i < 25; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("scrape %d → %d", i, rec.Code)
		}
		if _, err := obs.Lint(strings.NewReader(rec.Body.String())); err != nil {
			t.Fatalf("scrape %d unparseable: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
