package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact exposition text for a registry of
// every instrument kind — the format contract GET /metrics serves.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	jobs := r.CounterVec("jobs_total", "Jobs processed.", "state")
	jobs.With("done").Add(3)
	jobs.With("failed").Inc()
	r.Gauge("queue_depth", "Jobs queued.").Add(-2)
	r.GaugeFunc("temperature", "Sampled at scrape.", func() float64 { return 1.5 })
	h := r.Histogram("latency_ns", "Observed latencies.")
	for _, v := range []uint64{0, 1, 5, 5} {
		h.Observe(v)
	}

	want := `# HELP jobs_total Jobs processed.
# TYPE jobs_total counter
jobs_total{state="done"} 3
jobs_total{state="failed"} 1
# HELP latency_ns Observed latencies.
# TYPE latency_ns histogram
latency_ns_bucket{le="0"} 1
latency_ns_bucket{le="1"} 2
latency_ns_bucket{le="3"} 2
latency_ns_bucket{le="7"} 4
latency_ns_bucket{le="+Inf"} 4
latency_ns_sum 11
latency_ns_count 4
# HELP queue_depth Jobs queued.
# TYPE queue_depth gauge
queue_depth -2
# HELP temperature Sampled at scrape.
# TYPE temperature gauge
temperature 1.5
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
	if n, err := Lint(strings.NewReader(b.String())); err != nil || n != 11 {
		t.Fatalf("lint: %d samples, err %v (want 11, nil)", n, err)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "Escapes \\ and\nnewlines.", "v").
		With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `# HELP esc_total Escapes \\ and\nnewlines.`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if _, err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("lint rejects escaped output: %v", err)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad comment":    "# NOPE x y\n",
		"bad type":       "# TYPE x flavor\n",
		"short type":     "# TYPE x\n",
		"bad name":       "9metric 1\n",
		"bad value":      "metric one\n",
		"short line":     "metric\n",
		"unbalanced":     "metric{a=\"x\" 1\n",
		"odd quotes":     "metric{a=\"x} 1\n",
		"histogram gaps": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\n",
	}
	for name, text := range cases {
		if _, err := Lint(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint accepted %q", name, text)
		}
	}
	// A sample with a trailing timestamp is legal.
	if _, err := Lint(strings.NewReader("metric 1 1700000000\n")); err != nil {
		t.Errorf("timestamped sample rejected: %v", err)
	}
}

// TestConcurrentScrape races writers on every instrument kind against
// exposition — the /metrics endpoint's concurrency contract, exercised
// under make test-race.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "C.")
	g := r.Gauge("gg", "G.")
	h := r.Histogram("hh_ns", "H.")
	vec := r.CounterVec("vv_total", "V.", "k")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := string(rune('a' + w))
			cw := vec.With(k)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Add(1)
				h.Observe(uint64(i))
				cw.Inc()
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := Lint(strings.NewReader(b.String())); err != nil {
			t.Fatalf("scrape %d unparseable: %v\n%s", i, err, b.String())
		}
	}
	close(stop)
	wg.Wait()
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "S.").Add(7)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "served_total 7") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}
}
