// Package avail is the availability-model registry: it abstracts *how time
// labels are assigned to the edges of a static graph*, making the paper's
// i.i.d. F-CASE label laws (package dist, threaded through
// assign.FromDistributionInto) one model among several.
//
// A Model deterministically maps (graph, rng.Stream) to a temporal.Labeling
// through its one draw method, Resample, which writes into a reused
// labeling; a Scenario additionally owns its adjacency and generates graph
// and labeling together (the dynamic geometric model, where which links exist at
// all is an outcome of mobility). Every model draws randomness only from the
// stream it is handed, in a fixed order, so networks built from
// rng.NewStream(seed, trial) are bit-identical for any worker count or
// scheduling — the same determinism contract internal/sim and
// internal/service cache on.
//
// Registered models:
//
//   - uniform, binom, geom, zipf — the i.i.d. F-CASE laws: R independent
//     labels per edge from the named dist law (uniform is the paper's
//     UNI-CASE).
//   - markov — correlated on/off link dynamics: each edge runs an
//     independent two-state Markov chain started from its stationary
//     distribution; the edge carries label t iff the chain is "on" at t.
//     The chain is parameterized by the stationary availability pi and the
//     mean on-run length runlen, so labels arrive in bursts whose
//     persistence is tunable at a fixed expected label budget (the
//     Díaz–Mitsche–Pérez correlated-dynamics gap named in PAPERS.md).
//   - pt, pt-ramp, pt-periodic, pt-burst — time-varying availability: slot
//     t is a label independently with probability p(t), where p is a ramp,
//     a sinusoid, or a burst window. pt is an alias for pt-ramp.
//   - geometric — a dynamic random geometric graph scenario: n points do
//     seeded random walks on the unit torus and the edge {u,v} is live at
//     label t iff the torus distance between u and v is at most radius.
//
// Use Build(name, Params) to construct a registered model, Network to
// assemble a temporal.Network from a model and substrate, and Builders for
// the registry metadata served by the experiment service's GET /models.
//
// The batched trial engine (sim.BatchRunner) has two routes. On a fixed
// substrate it calls Resample into one reused labeling per worker and
// relabels the worker's network in place (temporal.Relabel). A scenario's
// trials redraw their support graph too, so the engine draws them through
// the scenario's NewState instead (below).
//
// # Draw kernels
//
// The per-slot models draw through package rng's kernels, which keep the
// generator state in registers for the whole call. markov and pt draw a
// whole labeling in one call, which on CPUs with AVX-512F runs 8 edge
// ranges at once in 8 lanes (see package rng); binom draws one call per
// label:
//
//   - markov: rng.AppendChains, with coins compiled from pi (start), beta
//     (leave, chain on) and alpha (enter, chain off). With AVX-512F, a
//     labeling of at least 1024 words (E15, E18's markov arm, the sweep's
//     pi search) runs in lanes whenever alpha and beta are below 1. Per
//     edge, a chain with alpha or beta at most 1/32 runs the run-length
//     kernel, which only draws through an off run and branches only when
//     the chain switches; any other chain runs the branch-free
//     conditional-move kernel, and a chain with alpha or beta equal to 1
//     (runlen 1, or pi = runlen/(1+runlen)) the per-flip loop.
//   - pt, pt-ramp, pt-periodic, pt-burst: rng.AppendSchedules over the
//     schedule's p(t) compiled to one rng.Coin per slot when the model is
//     built. With AVX-512F, a labeling of at least 1024 words runs in
//     lanes unless a slot has p(t) = 0 or 1 (a coin that draws nothing);
//     otherwise each edge runs the branch-free per-edge kernel.
//   - binom: label by label through assign.FromDistributionInto, each
//     label one rng.CountHeads call over a−1 flips of the law's compiled
//     coin (dist.Binomial.Sample).
//   - uniform: dist.Uniform.SampleInto; geom and zipf draw label by label
//     through assign.FromDistributionInto.
//   - geometric: its ScenarioState (below) draws two Float64 per point
//     and slot.
//
// Every kernel consumes the stream exactly as per-slot Stream.Bernoulli
// loops would; resample_ref_test.go keeps those loops as the reference
// for markov and pt and compares labels, offsets and the stream's next
// word, and package dist's tests do the same for the binomial law.
//
// # Incremental scenarios
//
// Scenario models get their own batched fast path. A scenario that
// implements IncrementalScenario hands the engine a reusable per-worker
// ScenarioState whose Resample returns the trial's support-edge list (in
// Generate's edge-id order) plus its CSR labeling, all in state-owned
// buffers that the next call overwrites — stream consumption and output
// bit-identical to Generate. sim.BatchRunner hands both to
// temporal.RelabelEdges, which replaces one worker-owned network's edges
// and labels in place instead of allocating a fresh graph, labeling and
// time-edge indexes. The geometric model's state rebuilds its torus grid
// every slot: it bins the points into one contiguous run per occupied cell,
// with epoch-stamped run bounds so the grid is never cleared, and scans
// each run against itself and its four forward neighbours' runs, so a
// slot visits at most n cells however fine the grid. The grid side is
// bounded by 4·⌈√n⌉ as well as by 1/r, so the state stays O(n) at any
// radius. The state wraps coordinates with two comparisons instead of
// math.Mod, exact because a step moves a point by at most 0.5, and groups
// the slot-major pair keys with a stable per-pair counting sort whose
// distinct keys come out of a bitmap in ascending order, so a
// steady-state trial allocates nothing. Generate itself stays the simple
// map-accumulating reference implementation — the differential oracle the
// engine is pinned against — and NewScenarioState may return nil for
// sizes the packed representation cannot cover. NewState hands the engine
// the incremental state where there is one, and otherwise a state that
// runs one Generate per trial, so a scenario without an incremental state
// (the sweep's randomized substrate families) rides the same
// RelabelEdges route.
package avail
