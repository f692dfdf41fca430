package service

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
)

// stubRegistry builds a Lookup over synthetic experiments so manager tests
// stay fast and controllable.
func stubRegistry(entries ...experiments.Experiment) func(string) (experiments.Experiment, bool) {
	return func(id string) (experiments.Experiment, bool) {
		for _, e := range entries {
			if e.ID == id {
				return e, true
			}
		}
		return experiments.Experiment{}, false
	}
}

// fastExperiment runs `trials` harness trials deriving one metric from the
// seed, so different seeds produce different tables.
func fastExperiment(id string, trials int) experiments.Experiment {
	return experiments.Experiment{ID: id, Title: "stub " + id, Anchor: "-", Run: func(cfg experiments.Config) experiments.Result {
		ctx := cfg.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		runner := &sim.BatchRunner{Seed: cfg.Seed, OnTrial: cfg.Progress}
		res, _ := runner.Run(ctx, 0, trials, func(i int, r *rng.Stream, _ sim.Draw) sim.Metrics {
			return sim.Metrics{"v": r.Float64()}
		})
		tb := table.New(id+": stub", "mean")
		tb.AddRow(table.F(res.Sample("v").Mean(), 6))
		return experiments.Result{Tables: []*table.Table{tb}}
	}}
}

// slowExperiment blocks its trials on release, signalling started once.
func slowExperiment(id string, started chan<- string, release <-chan struct{}) experiments.Experiment {
	var once sync.Once
	return experiments.Experiment{ID: id, Title: "slow " + id, Anchor: "-", Run: func(cfg experiments.Config) experiments.Result {
		runner := &sim.BatchRunner{Seed: cfg.Seed, Workers: 1, OnTrial: cfg.Progress}
		res, _ := runner.Run(cfg.Ctx, 0, 500, func(i int, r *rng.Stream, _ sim.Draw) sim.Metrics {
			once.Do(func() { started <- id })
			select {
			case <-release:
			case <-cfg.Ctx.Done():
			case <-time.After(5 * time.Second):
			}
			return sim.Metrics{"v": 1}
		})
		tb := table.New(id+": slow", "n")
		tb.AddRow(table.I(res.Trials()))
		return experiments.Result{Tables: []*table.Table{tb}}
	}}
}

func panicExperiment(id string) experiments.Experiment {
	return experiments.Experiment{ID: id, Title: "boom", Anchor: "-", Run: func(cfg experiments.Config) experiments.Result {
		panic("kaboom")
	}}
}

// trialPanicExperiment panics inside a Monte-Carlo trial, i.e. on one of
// the sim worker goroutines rather than the job worker itself.
func trialPanicExperiment(id string) experiments.Experiment {
	return experiments.Experiment{ID: id, Title: "boom", Anchor: "-", Run: func(cfg experiments.Config) experiments.Result {
		runner := &sim.BatchRunner{Seed: cfg.Seed, OnTrial: cfg.Progress}
		runner.Run(cfg.Ctx, 0, 50, func(i int, _ *rng.Stream, _ sim.Draw) sim.Metrics {
			if i == 7 {
				panic("trial kaboom")
			}
			return sim.Metrics{"v": 1}
		})
		tb := table.New(id, "x")
		tb.AddRow("1")
		return experiments.Result{Tables: []*table.Table{tb}}
	}}
}

// waitState polls until the job reaches a terminal state or the deadline.
func waitState(t *testing.T, job *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := job.State(); s == want {
			return
		} else if s.Terminal() {
			t.Fatalf("job %s settled as %s, want %s", job.ID(), s, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", job.ID(), job.State(), want)
}

func TestSubmitUnknownExperiment(t *testing.T) {
	m := New(Options{Workers: 1, Lookup: stubRegistry()})
	defer m.Close()
	if _, err := m.Submit(Request{Experiment: "E1"}); err == nil {
		t.Fatal("submit of unknown experiment should fail")
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	m := New(Options{Workers: 2, Lookup: stubRegistry(fastExperiment("E1", 40))})
	defer m.Close()
	job, err := m.Submit(Request{Experiment: "e1", Seed: 5})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.req.Experiment != "E1" {
		t.Fatalf("request not canonicalized: %+v", job.req)
	}
	waitState(t, job, StateDone)
	p, ok := job.Payload()
	if !ok || len(p.Tables) != 1 {
		t.Fatalf("payload missing: %v %v", p, ok)
	}
	if p.Meta.Trials != 40 {
		t.Fatalf("meta trials = %d, want 40", p.Meta.Trials)
	}
	if v := job.View(); v.State != StateDone || v.Trials != 40 || v.FromCache {
		t.Fatalf("view = %+v", v)
	}
}

// TestCacheServesRepeatSubmit: the acceptance path — identical requests hit
// the cache, produce identical payloads, and bump the hit counter.
func TestCacheServesRepeatSubmit(t *testing.T) {
	m := New(Options{Workers: 1, Lookup: stubRegistry(fastExperiment("E1", 20))})
	defer m.Close()
	req := Request{Experiment: "E1", Seed: 11, Quick: true}

	first, err := m.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, first, StateDone)

	second, err := m.Submit(req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if second.State() != StateDone || !second.View().FromCache {
		t.Fatalf("second submit not served from cache: %+v", second.View())
	}
	p1, _ := first.Payload()
	p2, _ := second.Payload()
	j1, _ := p1.JSON()
	j2, _ := p2.JSON()
	if string(j1) != string(j2) {
		t.Fatal("cached payload differs from computed payload")
	}
	s := m.Stats()
	if s.CacheHits != 1 || s.JobsFromCache != 1 {
		t.Fatalf("stats = %+v, want one cache hit", s)
	}

	// A different seed misses.
	third, err := m.Submit(Request{Experiment: "E1", Seed: 12, Quick: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if third.View().FromCache {
		t.Fatal("different seed served from cache")
	}
	waitState(t, third, StateDone)
	p3, _ := third.Payload()
	j3, _ := p3.JSON()
	if string(j3) == string(j1) {
		t.Fatal("different seeds produced identical payloads")
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	m := New(Options{Workers: 1, Lookup: stubRegistry(slowExperiment("ES", started, release))})
	defer m.Close()

	job, err := m.Submit(Request{Experiment: "ES", Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	if job.State() != StateRunning {
		t.Fatalf("state = %s, want running", job.State())
	}
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitState(t, job, StateCancelled)
	if _, ok := job.Payload(); ok {
		t.Fatal("cancelled job should have no payload")
	}
	if err := m.Cancel(job.ID()); err == nil {
		t.Fatal("cancelling a terminal job should error")
	}
	if s := m.Stats(); s.JobsCancelled != 1 {
		t.Fatalf("stats = %+v, want one cancelled", s)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	m := New(Options{Workers: 1, Lookup: stubRegistry(
		slowExperiment("ES", started, release), fastExperiment("E1", 10))})
	defer m.Close()

	blocker, err := m.Submit(Request{Experiment: "ES", Seed: 1})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started // the single worker is now busy
	queued, err := m.Submit(Request{Experiment: "E1", Seed: 2})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	if queued.State() != StateQueued {
		t.Fatalf("state = %s, want queued", queued.State())
	}
	if err := m.Cancel(queued.ID()); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if queued.State() != StateCancelled {
		t.Fatalf("queued job state = %s after cancel", queued.State())
	}
	// The worker must skip it once unblocked, not resurrect it.
	m.Cancel(blocker.ID())
	waitState(t, blocker, StateCancelled)
	time.Sleep(10 * time.Millisecond)
	if queued.State() != StateCancelled {
		t.Fatalf("worker resurrected a cancelled job: %s", queued.State())
	}
}

func TestDriverPanicBecomesFailedJob(t *testing.T) {
	m := New(Options{Workers: 1, Lookup: stubRegistry(panicExperiment("EB"), fastExperiment("E1", 5))})
	defer m.Close()
	job, err := m.Submit(Request{Experiment: "EB", Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, job, StateFailed)
	if v := job.View(); !strings.Contains(v.Error, "kaboom") {
		t.Fatalf("error not captured: %+v", v)
	}
	// The pool survives the panic.
	ok, err := m.Submit(Request{Experiment: "E1", Seed: 1})
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	waitState(t, ok, StateDone)
	if s := m.Stats(); s.JobsFailed != 1 || s.JobsCompleted != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestTrialPanicBecomesFailedJob: panics on sim worker goroutines must be
// contained too — the serve process and its worker pool survive.
func TestTrialPanicBecomesFailedJob(t *testing.T) {
	m := New(Options{Workers: 1, Lookup: stubRegistry(trialPanicExperiment("ET"), fastExperiment("E1", 5))})
	defer m.Close()
	job, err := m.Submit(Request{Experiment: "ET", Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, job, StateFailed)
	if v := job.View(); !strings.Contains(v.Error, "trial kaboom") {
		t.Fatalf("trial panic not captured: %+v", v)
	}
	ok, err := m.Submit(Request{Experiment: "E1", Seed: 1})
	if err != nil {
		t.Fatalf("submit after trial panic: %v", err)
	}
	waitState(t, ok, StateDone)
}

func TestQueueFullRejects(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	m := New(Options{Workers: 1, QueueDepth: 1, Lookup: stubRegistry(
		slowExperiment("ES", started, release), fastExperiment("E1", 5))})
	defer m.Close()

	if _, err := m.Submit(Request{Experiment: "ES", Seed: 1}); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	if _, err := m.Submit(Request{Experiment: "E1", Seed: 1}); err != nil {
		t.Fatalf("queue slot submit: %v", err)
	}
	if _, err := m.Submit(Request{Experiment: "E1", Seed: 2}); err == nil {
		t.Fatal("submit into a full queue should fail")
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	m := New(Options{Workers: 1, Lookup: stubRegistry(fastExperiment("E1", 5))})
	m.Close()
	if _, err := m.Submit(Request{Experiment: "E1"}); err == nil {
		t.Fatal("submit after Close should fail")
	}
	m.Close() // idempotent
}

func TestJobsListedInSubmissionOrder(t *testing.T) {
	m := New(Options{Workers: 2, Lookup: stubRegistry(fastExperiment("E1", 5))})
	defer m.Close()
	var ids []string
	for seed := uint64(0); seed < 5; seed++ {
		job, err := m.Submit(Request{Experiment: "E1", Seed: seed})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, job.ID())
	}
	jobs := m.Jobs()
	if len(jobs) != 5 {
		t.Fatalf("Jobs() returned %d", len(jobs))
	}
	for i, j := range jobs {
		if j.ID() != ids[i] {
			t.Fatalf("order mangled at %d: %s vs %s", i, j.ID(), ids[i])
		}
	}
}

// TestQueueDepthGaugeSettles pins service_queue_depth across both kinds
// of queued job: once a local sweep and an experiment job have settled,
// the gauge reads what it read before, each counted once onto the queue
// and once off.
func TestQueueDepthGaugeSettles(t *testing.T) {
	m := New(Options{Workers: 1, Lookup: stubRegistry(fastExperiment("E1", 5))})
	defer m.Close()
	before := obsQueueDepth.Value()
	sweepJob, err := m.SubmitSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(Request{Experiment: "E1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sweepJob, StateDone)
	waitState(t, job, StateDone)
	if got := obsQueueDepth.Value(); got != before {
		t.Fatalf("service_queue_depth = %d after both jobs settled, want %d", got, before)
	}
}
