// Package sweep is the adaptive estimation engine layered on the
// Monte-Carlo harness (internal/sim) and the availability-model registry
// (internal/avail): CI-driven trial loops, threshold bisection, and
// resumable parameter grids. Where the experiment drivers run a fixed
// trial count and report bare means, sweep answers "estimate this response
// to ±ε" and "where does this response cross level y" — the forms the
// paper's statistical statements (expected diameter Θ(log n), the
// connectivity threshold for random availability) actually take.
//
// # Determinism contract
//
// Every number produced by this package is a pure function of the spec —
// grid, precision, kind, and base seed — and never of the worker count,
// the batch split, or a checkpoint/resume boundary:
//
//   - Cell c of a grid derives its own seed CellSeed(seed, c), and trial i
//     of that cell always draws from rng.NewStream(CellSeed(seed, c), i) —
//     the same stream discipline as internal/sim.
//   - Batches extend the trial sequence via sim.BatchRunner.ObserveFrom
//     (or any other Source), and observations are folded into the
//     streaming estimator in trial order, so the accumulated state after
//     n trials is a fold over the first n observations regardless of
//     scheduling.
//   - The adaptive stopping rule (and the size of the next batch) reads
//     only that accumulated state, so the loop visits an identical trial
//     prefix for any Workers value — Estimate results are bit-identical
//     across Workers ∈ {1, 4, GOMAXPROCS, …}.
//
// # Resume contract
//
// A Checkpoint records the spec fingerprint (Sweep.SpecKey) and the
// completed cells. Sweep.Run with a prior checkpoint re-runs only the
// missing cells; because cells are seeded independently of one another,
// the union of a split run's cells is bit-identical to an uninterrupted
// run, no matter where the split fell. A checkpoint whose fingerprint
// does not match the spec is rejected rather than silently mixed.
//
// # Execution sources
//
// How trials execute is swappable without touching any number: a Source
// supplies the observations for a trial range (Adaptive.EstimateSource),
// and a CellSource builds one per grid cell (Sweep.Source) or per
// bisection probe (Threshold.FindAdaptiveSource). The default source runs
// the observable on a sim.BatchRunner without a model; the batched source
// (experiments.SweepTarget.Source, a BatchRunner with the cell's model and
// substrate) amortizes substrate and index construction across a cell's
// trials. Conforming
// sources are bit-identical per cell, so SpecKey deliberately ignores
// them.
package sweep
