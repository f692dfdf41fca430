package sim

// Process-wide counters for the Monte-Carlo harness, exposed through
// internal/obs (GET /metrics on cmd/serve, -metrics-dump on the CLIs).
// Everything is recorded at batch or worker granularity — never one
// atomic per trial on the claim-execute hot path — so instrumentation
// cannot shift the kernel benchmarks. Metrics never influence trial
// randomness or aggregation; determinism is untouched.

import "repro/internal/obs"

var (
	obsTrialsStarted = obs.NewCounter("sim_trials_started_total",
		"Trials claimed by workers across all runs.")
	obsTrialsCompleted = obs.NewCounter("sim_trials_completed_total",
		"Trials that ran to completion across all runs.")
	obsBatchResample = obs.NewCounter("sim_batch_resample_trials_total",
		"Batched trials served by the in-place Resample+Relabel fast path.")
	obsBatchScenario = obs.NewCounter("sim_batch_scenario_trials_total",
		"Batched scenario trials served by the ScenarioState+RelabelEdges path.")
	obsFreelistHits = obs.NewCounter("sim_worker_freelist_hits_total",
		"Batch worker acquisitions served from the free list (warm state).")
	obsFreelistMisses = obs.NewCounter("sim_worker_freelist_misses_total",
		"Batch worker acquisitions that built fresh state.")
)

// countRun records one runLoop's claim/completion totals after the
// workers drain: claimed is clamped to the trial count (the last worker
// overshoots the claim counter by design), completed comes from the
// per-offset flags.
func countRun(next int64, count int, completed []bool) {
	claimed := int(next)
	if claimed > count {
		claimed = count
	}
	if claimed > 0 {
		obsTrialsStarted.Add(uint64(claimed))
	}
	done := 0
	for _, ok := range completed {
		if ok {
			done++
		}
	}
	if done > 0 {
		obsTrialsCompleted.Add(uint64(done))
	}
}
