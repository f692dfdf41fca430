// Command serve runs the experiment service: a JSON HTTP API over the
// E1–E18 drivers and the adaptive sweep engine, with a bounded worker
// pool, an LRU result cache, and the process observability surface.
//
// Usage:
//
//	serve -addr :8080 -workers 4 -cache 256 -queue 256 [-pprof]
//	serve -addr :8080 -net network.tnet -qindex auto -qindex-mem 256
//	serve -addr :8080 -lease-ttl 30s -ckpt-dir /var/lib/repro  # sweep coordinator
//
// With -net the process additionally serves interactive journey queries
// over the loaded temporal network, answered from a precomputed arrival
// index (internal/qindex) with request coalescing:
//
//	GET  /query?src=&dst=&start=[&journey=1]
//	POST /query {"queries":[{"src":0,"dst":9,"start":3},…]}
//	GET  /query/stats
//
// Endpoints (see internal/service.NewHandlerWith):
//
//	GET  /experiments               registry metadata
//	GET  /models                    availability-model registry
//	POST /jobs                      {"experiment":"E1","seed":2014,"quick":true}
//	GET  /jobs/{id}                 status + live trial progress
//	GET  /jobs/{id}/result?format=json|csv|md
//	POST /jobs/{id}/cancel          cancel an in-flight job
//	POST /sweeps                    adaptive grid sweep (SweepRequest)
//	GET  /sweeps/{id}               sweep status + per-cell progress
//	GET  /sweeps/{id}/result?format=json|csv|md
//	POST /sweeps/{id}/lease         distributed sweeps: cell leases (cmd/sweepworker)
//	POST /sweeps/{id}/cells         distributed sweeps: report completed cells
//	POST /sweeps/{id}/heartbeat     distributed sweeps: extend a worker's leases
//	GET  /sweeps/{id}/checkpoint    distributed sweeps: durable progress snapshot
//	GET  /sweeps/{id}/timeline      distributed sweeps: per-cell lease/expiry/completion log
//	GET  /healthz                   liveness
//	GET  /stats                     jobs run, cache hit rate, duration p50/p95/p99
//	GET  /metrics                   Prometheus text exposition (internal/obs),
//	                                including runtime_* health series (GC pause,
//	                                heap, goroutines, sched latency)
//	GET  /debug/trace               recent spans as JSON (internal/obs ring);
//	                                ?trace=&name=&min_dur_us=&limit= filter,
//	                                ?view=tree renders per-trace timelines
//	     /debug/pprof/...           net/http/pprof profiles, with -pprof only
//
// Determinism makes the cache sound: a job's numbers depend only on its
// canonical request — experiment (id, seed, quick, model, mp) or sweep
// (model, grid, precision, metric, seed) — so repeated submissions are
// served from cache bit-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/qindex"
	"repro/internal/service"
	"repro/internal/temporal"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "concurrent jobs (0: half of GOMAXPROCS)")
		cache     = flag.Int("cache", 256, "LRU result-cache capacity")
		queue     = flag.Int("queue", 256, "job queue depth")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		netPath   = flag.String("net", "", "temporal network (.tnet) to serve /query over")
		qmode     = flag.String("qindex", "auto", "arrival index mode: auto, full, lru or off")
		qmem      = flag.Int64("qindex-mem", 256, "arrival-index memory budget in MiB")
		accessLog = flag.Bool("access-log", true, "log every request (method, path, status, duration)")
		leaseTTL  = flag.Duration("lease-ttl", service.DefaultLeaseTTL, "distributed sweeps: cell lease lifetime before straggler re-lease")
		ckptDir   = flag.String("ckpt-dir", "", "distributed sweeps: directory for durable per-sweep checkpoints (empty: in-memory only)")
	)
	flag.Parse()

	qe, err := buildQueryEngine(*netPath, *qmode, *qmem)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}

	m := service.New(service.Options{
		Workers: *workers, CacheSize: *cache, QueueDepth: *queue,
		LeaseTTL: *leaseTTL, CheckpointDir: *ckptDir,
	})
	defer m.Close()

	handler := newMux(m, qe, *pprofOn)
	if *accessLog {
		logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
		handler = logRequests(logger, handler)
	}
	srv := newServer(*addr, handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("serve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	log.Printf("serve: experiment service listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
	stop()    // no more signals needed; unblocks the goroutine on clean exit
	<-drained // wait for in-flight responses before tearing down the manager
}

// newServer is the service's http.Server configuration. IdleTimeout
// matters here: workers and pollers hold keep-alive connections, and
// without it an idle connection pins its file descriptor until the peer
// goes away — a slow leak under worker churn.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:         addr,
		Handler:      handler,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Minute, // full-scale results take a while to render
		IdleTimeout:  2 * time.Minute,
	}
}

// maxIndexMiB is the largest -qindex-mem whose byte count fits an int64.
const maxIndexMiB int64 = math.MaxInt64 >> 20

// buildQueryEngine checks the index flags, then loads the network at path
// and precomputes its arrival index; a "" path means no query surface
// (qe == nil).
func buildQueryEngine(path, mode string, memMiB int64) (*service.QueryEngine, error) {
	qm, err := qindex.ParseMode(mode)
	if err != nil {
		return nil, err
	}
	if memMiB < 1 || memMiB > maxIndexMiB {
		return nil, fmt.Errorf("-qindex-mem %d: want a budget between 1 and %d MiB", memMiB, maxIndexMiB)
	}
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	net, err := temporal.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	ix := qindex.New(net, qindex.Options{Mode: qm, MemBudget: memMiB << 20})
	st := ix.Stats()
	log.Printf("serve: query index over %s: n=%d mode=%s resident_rows=%d resident_bytes=%d build_ms=%d",
		path, st.N, st.Mode, st.ResidentRows, st.ResidentBytes, st.BuildMS)
	return service.NewQueryEngine(ix), nil
}

// newMux assembles the full handler: the service API plus the
// observability endpoints, with the pprof handlers mounted only when
// requested (profiling endpoints are too sharp to expose by default).
func newMux(m *service.Manager, qe *service.QueryEngine, pprofOn bool) http.Handler {
	obs.RegisterRuntimeMetrics() // runtime_* health series, sampled at scrape time
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Handler())
	mux.Handle("GET /debug/trace", obs.TraceHandler())
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", service.NewHandlerWith(m, qe))
	return mux
}

// logRequests is the structured access log: method, path, status, body
// bytes and wall time per request.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := obs.NewResponseRecorder(w)
		next.ServeHTTP(rec, r)
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.Status(),
			"bytes", rec.Bytes(),
			"duration", time.Since(start).Round(time.Microsecond),
		)
	})
}
