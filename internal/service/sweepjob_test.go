package service

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/sweep"
)

// tinySweep is a sweep small enough for unit tests: an 8–12 vertex clique,
// coarse precision, tight trial caps.
func tinySweep() SweepRequest {
	return SweepRequest{
		Model:  "uniform",
		Metric: "treach",
		Seed:   2014,
		Grid: []sweep.Axis{
			{Name: "n", Values: []float64{8, 12}},
			{Name: "lifetime", Values: []float64{4, 16}},
		},
		Precision: sweep.Precision{Abs: 0.2, MinTrials: 4, MaxTrials: 32, Batch: 8},
	}
}

func TestSweepRequestCanonicalKey(t *testing.T) {
	a := tinySweep()
	b := tinySweep()
	b.Model = "  Uniform "
	b.Graph = "DCLIQUE"
	b.Metric = ""
	b.MP = map[string]float64{}
	if a.Key() != b.Key() {
		t.Fatalf("canonical keys differ:\n%s\n%s", a.Key(), b.Key())
	}
	c := tinySweep()
	c.Seed++
	if a.Key() == c.Key() {
		t.Fatal("seed must change the key")
	}
	d := tinySweep()
	d.Precision.Abs = 0.1
	if a.Key() == d.Key() {
		t.Fatal("precision must change the key")
	}
	e := tinySweep()
	e.Metric = "reach"
	if a.Key() == e.Key() {
		t.Fatal("metric must change the key")
	}
}

func TestSubmitSweepRunsToDone(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()
	job, err := m.SubmitSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if !job.IsSweep() {
		t.Fatal("job should be a sweep")
	}
	waitState(t, job, StateDone)

	payload, ok := job.Payload()
	if !ok {
		t.Fatal("done sweep has no payload")
	}
	if payload.Meta.ID != "SWEEP" || payload.Meta.Trials == 0 {
		t.Fatalf("meta = %+v", payload.Meta)
	}
	if len(payload.Tables) != 1 || len(payload.Tables[0].Rows) != 4 {
		t.Fatalf("sweep table should have 4 cells, got %+v", payload.Tables)
	}
	v := job.View()
	if v.CellsDone == nil || *v.CellsDone != 4 || v.CellsTotal != 4 {
		t.Fatalf("cells %v/%d, want 4/4", v.CellsDone, v.CellsTotal)
	}
	if v.Sweep == nil || v.Sweep.Model != "uniform" {
		t.Fatalf("view lacks sweep request: %+v", v)
	}
}

// TestSweepCacheHitBitIdentical: an identical resubmission must come from
// cache with a byte-identical payload — the determinism contract extended
// to sweep specs.
func TestSweepCacheHitBitIdentical(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()
	first, err := m.SubmitSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateDone)

	second, err := m.SubmitSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if second.State() != StateDone || !second.View().FromCache {
		t.Fatalf("resubmit not served from cache: %+v", second.View())
	}
	p1, _ := first.Payload()
	p2, _ := second.Payload()
	j1, _ := p1.JSON()
	j2, _ := p2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("cached sweep payload differs from computed one")
	}
	if got := second.View().CellsDone; got == nil || *got != 4 {
		t.Fatalf("cache hit should report full cell progress, got %v", got)
	}
}

func TestSubmitSweepValidation(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()
	cases := map[string]func(*SweepRequest){
		"unknown model":   func(r *SweepRequest) { r.Model = "nope" },
		"unknown metric":  func(r *SweepRequest) { r.Metric = "latency" },
		"unknown graph":   func(r *SweepRequest) { r.Graph = "hyperbolic" },
		"unknown axis":    func(r *SweepRequest) { r.Grid[0].Name = "temperature" },
		"empty axis":      func(r *SweepRequest) { r.Grid[0].Values = nil },
		"empty grid":      func(r *SweepRequest) { r.Grid = nil },
		"bad confidence":  func(r *SweepRequest) { r.Precision.Confidence = 2 },
		"foreign mp knob": func(r *SweepRequest) { r.MP = map[string]float64{"pi": 0.1} },
		"fractional n":    func(r *SweepRequest) { r.Grid[0].Values = []float64{8.5} },
		"grid over server cap": func(r *SweepRequest) {
			big := make([]float64, 100)
			for i := range big {
				big[i] = float64(i + 4)
			}
			r.Grid = []sweep.Axis{
				{Name: "n", Values: big},
				{Name: "lifetime", Values: big[:50]},
			}
		},
	}
	for name, mutate := range cases {
		req := tinySweep()
		mutate(&req)
		if _, err := m.SubmitSweep(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A knob the model declares is fine.
	req := tinySweep()
	req.Model = "markov"
	req.MP = map[string]float64{"runlen": 2}
	req.Grid = append(req.Grid, sweep.Axis{Name: "pi", Values: []float64{0.2, 0.4}})
	if _, err := m.SubmitSweep(req); err != nil {
		t.Errorf("valid markov sweep rejected: %v", err)
	}
}

func TestSweepEndpoints(t *testing.T) {
	a := newAPI(t, Options{Workers: 2})

	var v View
	status, body := a.do("POST", "/sweeps", tinySweep(), &v)
	if status != http.StatusAccepted {
		t.Fatalf("POST /sweeps → %d %s", status, body)
	}
	if v.Experiment != "SWEEP" || v.CellsTotal != 4 {
		t.Fatalf("submit view: %+v", v)
	}

	// Progress (and eventually completion) via GET /sweeps/{id}.
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, _ = a.do("GET", "/sweeps/"+v.ID, nil, &v)
		if status != http.StatusOK {
			t.Fatalf("GET /sweeps/%s → %d", v.ID, status)
		}
		if v.State == StateDone {
			break
		}
		if v.State.Terminal() {
			t.Fatalf("sweep settled as %s (%s)", v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.CellsDone == nil || *v.CellsDone != 4 || v.Trials == 0 {
		t.Fatalf("done view lacks progress: %+v", v)
	}

	// Result in every format.
	for _, format := range []string{"json", "csv", "md"} {
		status, body = a.do("GET", "/sweeps/"+v.ID+"/result?format="+format, nil, nil)
		if status != http.StatusOK || len(body) == 0 {
			t.Fatalf("result format %s → %d", format, status)
		}
	}

	// The sweep listing contains it; an experiment submitted alongside
	// stays out of /sweeps and /sweeps/{id} rejects its id.
	var ev View
	if status, _ = a.do("POST", "/jobs", Request{Experiment: "E1", Seed: 1, Quick: true}, &ev); status != http.StatusAccepted {
		t.Fatalf("POST /jobs → %d", status)
	}
	var views []View
	if status, _ = a.do("GET", "/sweeps", nil, &views); status != http.StatusOK {
		t.Fatalf("GET /sweeps → %d", status)
	}
	if len(views) != 1 || views[0].ID != v.ID {
		t.Fatalf("sweep listing = %+v", views)
	}
	if status, _ = a.do("GET", "/sweeps/"+ev.ID, nil, nil); status != http.StatusNotFound {
		t.Fatalf("experiment id on /sweeps → %d, want 404", status)
	}
	if status, _ = a.do("POST", "/sweeps", map[string]any{"model": "nope"}, nil); status != http.StatusBadRequest {
		t.Fatalf("invalid sweep → %d, want 400", status)
	}
}

// TestStatsDurationPercentiles drives the percentile fields with injected
// timestamps: three terminal jobs that (by fabrication) ran 100ms, 200ms
// and 1000ms, plus a cache hit and a queued job that must stay excluded.
func TestStatsDurationPercentiles(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()

	base := time.Unix(1700000000, 0)
	add := func(j *Job) {
		m.mu.Lock()
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.mu.Unlock()
	}
	for i, d := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, time.Second} {
		add(&Job{id: fmt.Sprintf("t%d", i), state: StateDone,
			submitted: base, started: base, finished: base.Add(d)})
	}
	// A cache hit never started; a queued job has not finished. Neither
	// may enter the percentiles.
	add(&Job{id: "cachehit", state: StateDone, fromCache: true,
		submitted: base, finished: base})
	add(&Job{id: "stillqueued", state: StateQueued, submitted: base})

	s := m.Stats()
	if s.DurationP50Ms != 200 {
		t.Fatalf("p50 = %v ms, want 200", s.DurationP50Ms)
	}
	// numpy-style interpolation at q=0.95 over {100, 200, 1000}: 920.
	if math.Abs(s.DurationP95Ms-920) > 1e-9 {
		t.Fatalf("p95 = %v ms, want 920", s.DurationP95Ms)
	}
	// Same interpolation at q=0.99: 984.
	if math.Abs(s.DurationP99Ms-984) > 1e-9 {
		t.Fatalf("p99 = %v ms, want 984", s.DurationP99Ms)
	}
}

func TestDurationPercentilesEmpty(t *testing.T) {
	if p50, p95, p99 := durationPercentiles(nil); p50 != 0 || p95 != 0 || p99 != 0 {
		t.Fatalf("empty percentiles = %v, %v, %v", p50, p95, p99)
	}
}

// TestSweepTinyRadiusCompletes: a geometric sweep at radius 1e-6 runs to
// done. The mobility engine bounds its grid by the point count; sized by
// 1/r² alone the grid would be 10¹² cells, an allocation failure that
// ends the whole server instead of failing the job.
func TestSweepTinyRadiusCompletes(t *testing.T) {
	a := newAPI(t, Options{Workers: 1})
	req := SweepRequest{
		Model: "geometric", Metric: "treach", Seed: 7,
		Grid: []sweep.Axis{
			{Name: "n", Values: []float64{64}},
			{Name: "lifetime", Values: []float64{8}},
			{Name: "radius", Values: []float64{1e-6}},
		},
		Precision: sweep.Precision{Abs: 0.2, MinTrials: 4, MaxTrials: 16, Batch: 8},
	}
	var v View
	if status, body := a.do("POST", "/sweeps", req, &v); status != http.StatusAccepted {
		t.Fatalf("POST /sweeps → %d %s", status, body)
	}
	deadline := time.Now().Add(60 * time.Second)
	for v.State != StateDone {
		if v.State.Terminal() {
			t.Fatalf("sweep settled as %s (%s)", v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never finished")
		}
		time.Sleep(5 * time.Millisecond)
		if status, _ := a.do("GET", "/sweeps/"+v.ID, nil, &v); status != http.StatusOK {
			t.Fatalf("GET /sweeps/%s → %d", v.ID, status)
		}
	}
	if v.Trials == 0 {
		t.Fatalf("done sweep ran no trials: %+v", v)
	}
}
