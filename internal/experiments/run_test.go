package experiments

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
)

// renderAll flattens a Result into one string for equality comparison.
func renderAll(res Result) string {
	var b strings.Builder
	for _, tb := range res.Tables {
		b.WriteString(tb.Render())
	}
	for _, fig := range res.Figures {
		b.WriteString(fig)
	}
	return b.String()
}

// stubExperiment builds a registry-shaped experiment around a harness trial
// so wrapper tests need not run real drivers.
func stubExperiment(id string, trials int, trial sim.Trial) Experiment {
	return Experiment{ID: id, Title: "stub", Anchor: "-", Run: func(cfg Config) Result {
		cfg.run(nil, trials, cfg.Seed, nil, nil, trial)
		tb := table.New(id, "x")
		tb.AddRow("1")
		return Result{Tables: []*table.Table{tb}}
	}}
}

// TestRunMatchesDirectCall: the wrapper's plumbing (context, progress
// accounting) must not perturb a completed run — the property the service
// cache depends on.
func TestRunMatchesDirectCall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real driver")
	}
	e, _ := ByID("E1")
	cfg := Config{Seed: 99, Quick: true}
	direct := e.Run(cfg)
	wrapped, meta, err := Run(context.Background(), e, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if renderAll(direct) != renderAll(wrapped) {
		t.Fatal("wrapped run differs from direct driver call")
	}
	if meta.ID != "E1" || meta.Seed != 99 || !meta.Quick {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.Trials == 0 {
		t.Fatal("meta.Trials not accounted")
	}
}

// TestRunDeterministicAcrossCalls: same (experiment, Config) twice → byte
// identical output. This is the cache-correctness contract end to end.
func TestRunDeterministicAcrossCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real driver")
	}
	e, _ := ByID("E1")
	cfg := Config{Seed: 7, Quick: true}
	a, _, err1 := Run(context.Background(), e, cfg)
	b, _, err2 := Run(context.Background(), e, cfg)
	if err1 != nil || err2 != nil {
		t.Fatalf("Run errors: %v %v", err1, err2)
	}
	if renderAll(a) != renderAll(b) {
		t.Fatal("repeated runs are not bit-identical")
	}
}

func TestRunAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := stubExperiment("EX", 100, func(int, *rng.Stream, sim.Draw) sim.Metrics {
		t.Error("trial ran under a cancelled context")
		return nil
	})
	res, _, err := Run(ctx, e, Config{Seed: 1})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if len(res.Tables) != 0 {
		t.Fatal("cancelled run should discard the partial result")
	}
}

// TestRunCancelMidRun cancels while a slow stub driver is running and
// checks the error and the discarded result.
func TestRunCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once atomic.Bool
	slow := stubExperiment("ESLOW", 1000, func(i int, _ *rng.Stream, _ sim.Draw) sim.Metrics {
		if once.CompareAndSwap(false, true) {
			close(started)
		}
		time.Sleep(time.Millisecond)
		return sim.Metrics{"x": 1}
	})
	go func() {
		<-started
		cancel()
	}()
	res, meta, err := Run(ctx, slow, Config{Seed: 1})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if len(res.Tables) != 0 {
		t.Fatal("cancelled run should discard the partial result")
	}
	if meta.Trials >= 1000 {
		t.Fatalf("cancelled run completed all %d trials", meta.Trials)
	}
}

func TestRunProgressForwarded(t *testing.T) {
	var user int64
	e := stubExperiment("EP", 50, func(i int, _ *rng.Stream, _ sim.Draw) sim.Metrics {
		return sim.Metrics{"x": 1}
	})
	_, meta, err := Run(context.Background(), e, Config{Seed: 2, Progress: func() {
		atomic.AddInt64(&user, 1)
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if meta.Trials != 50 || atomic.LoadInt64(&user) != 50 {
		t.Fatalf("trials=%d user hook fired %d times, want 50/50", meta.Trials, user)
	}
}
