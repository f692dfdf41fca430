package repro

// Repository-level benchmarks: one per experiment (regenerating the
// corresponding table/figure at quick scale and reporting its headline
// metric via b.ReportMetric) plus micro-benchmarks of the kernels every
// experiment leans on.

import (
	"context"
	"math"
	"strconv"
	"testing"

	"repro/internal/assign"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/phonecall"
	"repro/internal/qindex"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// benchCfg is the per-iteration experiment configuration: quick scale,
// seed varied per iteration so the benchmark averages across instances.
func benchCfg(i int) experiments.Config {
	return experiments.Config{Seed: uint64(i) + 1, Quick: true}
}

// runExperiment drives one experiment per iteration and reports the
// number of table rows produced (a stand-in throughput metric; the real
// output is the table itself).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	rows := 0
	for i := 0; i < b.N; i++ {
		res := e.Run(benchCfg(i))
		for _, tb := range res.Tables {
			rows += len(tb.Rows)
		}
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

func BenchmarkE1TemporalDiameterClique(b *testing.B) { runExperiment(b, "E1") }
func BenchmarkE2LifetimeScaling(b *testing.B)        { runExperiment(b, "E2") }
func BenchmarkE3ExpansionProcess(b *testing.B)       { runExperiment(b, "E3") }
func BenchmarkE4Spread(b *testing.B)                 { runExperiment(b, "E4") }
func BenchmarkE5StarReachability(b *testing.B)       { runExperiment(b, "E5") }
func BenchmarkE6StarPoR(b *testing.B)                { runExperiment(b, "E6") }
func BenchmarkE7GeneralReachability(b *testing.B)    { runExperiment(b, "E7") }
func BenchmarkE8PoRGeneral(b *testing.B)             { runExperiment(b, "E8") }
func BenchmarkE9GnpConnectivity(b *testing.B)        { runExperiment(b, "E9") }
func BenchmarkE10PhoneCall(b *testing.B)             { runExperiment(b, "E10") }
func BenchmarkE11MultiLabel(b *testing.B)            { runExperiment(b, "E11") }
func BenchmarkE12Distributions(b *testing.B)         { runExperiment(b, "E12") }
func BenchmarkE13Remark1(b *testing.B)               { runExperiment(b, "E13") }
func BenchmarkE14Windows(b *testing.B)               { runExperiment(b, "E14") }
func BenchmarkE15MarkovDiameter(b *testing.B)        { runExperiment(b, "E15") }
func BenchmarkE16TimeVarying(b *testing.B)           { runExperiment(b, "E16") }
func BenchmarkE17Geometric(b *testing.B)             { runExperiment(b, "E17") }
func BenchmarkE18ConnectivityThreshold(b *testing.B) { runExperiment(b, "E18") }

// --- kernel micro-benchmarks -------------------------------------------

// urtClique builds a directed normalized URT clique instance.
func urtClique(n int, seed uint64) *temporal.Network {
	g := graph.Clique(n, true)
	lab := assign.NormalizedURTN(g, rng.New(seed))
	return temporal.MustNew(g, n, lab)
}

// sparseGnp builds an undirected sparse G(n,p) instance with uniform
// labels — the Hartmann–Mézard-style sparse regime (np ≈ 8).
func sparseGnp(n int, seed uint64) *temporal.Network {
	r := rng.New(seed)
	g := graph.Gnp(n, 8/float64(n), false, r)
	lab := assign.Uniform(g, n, 4, r)
	return temporal.MustNew(g, n, lab)
}

func BenchmarkKernelEarliestArrival(b *testing.B) {
	run := func(name string, net *temporal.Network) {
		b.Run(name, func(b *testing.B) {
			n := net.Graph().N()
			arr := make([]int32, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.EarliestArrivalsInto(i%n, arr)
			}
			b.ReportMetric(float64(net.LabelCount()), "timeedges")
		})
	}
	for _, n := range []int{256, 1024} {
		run("clique-"+strconv.Itoa(n), urtClique(n, 1))
	}
	run("gnp-4096-sparse", sparseGnp(4096, 1))
}

// BenchmarkKernelEarliestArrivalLinear measures the pre-engine O(M) scan
// (kept as the differential oracle) on the same instances, so the frontier
// speedup is visible within one run.
func BenchmarkKernelEarliestArrivalLinear(b *testing.B) {
	run := func(name string, net *temporal.Network) {
		b.Run(name, func(b *testing.B) {
			n := net.Graph().N()
			arr := make([]int32, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.EarliestArrivalsLinearInto(i%n, arr)
			}
		})
	}
	run("clique-1024", urtClique(1024, 1))
	run("gnp-4096-sparse", sparseGnp(4096, 1))
}

func BenchmarkKernelTemporalDiameterExact(b *testing.B) {
	net := urtClique(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		temporal.Diameter(net)
	}
}

// treachLabelings is how many labelings of one shape the Treach
// benchmarks rotate through. Rescanning one labeling lets the branch
// predictor learn its pattern, which no Monte-Carlo trial, each on a fresh
// labeling, gets to do.
const treachLabelings = 8

func BenchmarkKernelTreach(b *testing.B) {
	g := graph.Grid(12, 12)
	nets := make([]*temporal.Network, treachLabelings)
	for i := range nets {
		nets[i] = temporal.MustNew(g, g.N(), assign.Uniform(g, g.N(), 8, rng.New(uint64(i+1))))
	}
	scratch := temporal.NewTreachScratch(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		temporal.SatisfiesTreachSerial(nets[i%len(nets)], scratch)
	}
}

// BenchmarkKernelTreachClique is the dense always-satisfied regime: no
// early exit, every source sweeps, so the bit-parallel kernel's 64-way
// sharing carries the whole n² work.
func BenchmarkKernelTreachClique(b *testing.B) {
	nets := make([]*temporal.Network, treachLabelings)
	for i := range nets {
		nets[i] = urtClique(256, uint64(i+1))
	}
	scratch := temporal.NewTreachScratch(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		temporal.SatisfiesTreachSerial(nets[i%len(nets)], scratch)
	}
}

// BenchmarkKernelConnectedPrefix is E1b's per-trial question, the least
// label k whose ≤k-prefix strongly connects a directed normalized URT
// 128-clique (E1's largest quick size), answered from the time-edge list
// with reused scratch: 0 allocs/op.
func BenchmarkKernelConnectedPrefix(b *testing.B) {
	net := urtClique(128, 1)
	scratch := new(temporal.PrefixScratch)
	k := temporal.ConnectedPrefix(net, scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		temporal.ConnectedPrefix(net, scratch)
	}
	b.ReportMetric(float64(k), "k")
}

// BenchmarkKernelMultiSourceReach measures the bit-parallel word kernel
// answering 64 sources in one pass.
func BenchmarkKernelMultiSourceReach(b *testing.B) {
	net := urtClique(1024, 1)
	sources := make([]int, 64)
	for i := range sources {
		sources[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		temporal.ReachableSets(net, sources)
	}
}

// regimeNet is one named instance of the reachability-regime benchmarks.
type regimeNet struct {
	name string
	net  *temporal.Network
}

// reachabilityRegimes builds the three reachability regimes: a
// subcritical and a near-threshold directed G(n,p) at n = 4096, where
// reachability is partial, and the fully reachable URT clique-256.
func reachabilityRegimes() []regimeNet {
	r := rng.New(1)
	g := graph.Gnp(4096, 0.5/4096, true, r)
	sub := temporal.MustNew(g, 4096, assign.Uniform(g, 4096, 4, r))
	g = graph.Gnp(4096, 3.0/4096, true, r)
	near := temporal.MustNew(g, 4096, assign.Uniform(g, 4096, 2, r))
	return []regimeNet{
		{"subcritical-gnp-4096", sub},
		{"near-threshold-gnp-4096", near},
		{"clique-256", urtClique(256, 1)},
	}
}

// BenchmarkKernelArrivalRegimes compares the single-source frontier kernel
// with the linear oracle across the reachability regimes: the frontier
// wins whenever reachability is partial (the linear scan cannot exit
// early), the linear scan on fully-reachable label-dense instances (its
// early exit stops at the completion prefix).
func BenchmarkKernelArrivalRegimes(b *testing.B) {
	for _, rn := range reachabilityRegimes() {
		n := rn.net.Graph().N()
		arr := make([]int32, n)
		b.Run(rn.name+"/frontier", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rn.net.EarliestArrivalsInto(i%n, arr)
			}
		})
		b.Run(rn.name+"/linear", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rn.net.EarliestArrivalsLinearInto(i%n, arr)
			}
		})
	}
}

// BenchmarkKernelDiameterRegimes runs the all-pairs diameter experiments
// call (DiameterFromSerial, one 64-source word pass per batch) across the
// same regimes: every source of the clique, 64 sampled sources of each
// G(n,p) — the shape of a sampled experiment trial.
func BenchmarkKernelDiameterRegimes(b *testing.B) {
	for _, rn := range reachabilityRegimes() {
		n := rn.net.Graph().N()
		sources := rng.New(2).Perm(n)
		if n > 256 {
			sources = sources[:64]
		}
		b.Run(rn.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				temporal.DiameterFromSerial(rn.net, sources)
			}
		})
	}
}

func BenchmarkKernelExpansion(b *testing.B) {
	net := urtClique(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Expansion(net, i%1024, (i+511)%1024, core.ExpansionConfig{})
	}
}

func BenchmarkKernelSpread(b *testing.B) {
	net := urtClique(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Spread(net, i%1024)
	}
}

func BenchmarkKernelUniformAssignment(b *testing.B) {
	g := graph.Clique(1024, true)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.NormalizedURTN(g, r)
	}
}

func BenchmarkKernelNetworkConstruction(b *testing.B) {
	g := graph.Clique(512, true)
	lab := assign.NormalizedURTN(g, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		temporal.MustNew(g, 512, lab)
	}
}

func BenchmarkKernelPhonecallPush(b *testing.B) {
	g := graph.Clique(1024, false)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phonecall.Push(g, i%1024, 0, r)
	}
}

func BenchmarkKernelGnpSparse(b *testing.B) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graph.Gnp(4096, 0.002, false, r)
	}
}

// --- batched trial engine (Relabel) micro-benchmarks --------------------
//
// BenchmarkKernelRelabel measures one batched Monte-Carlo trial on a fixed
// substrate: in-place Resample into a reused labeling, Relabel (lazy index
// rebuild), and a Treach check against a precomputed static-reachability
// cache. BenchmarkKernelRelabelRebuild is the same trial through the
// rebuild oracle the engine replaced — a fresh avail.Network (Resample
// into a new labeling + MustNew) and a serial Treach per trial. Both
// produce bit-identical answers (pinned by the differential tests); the
// delta is the batched engine's win, and the relabel side must stay at 0
// allocs/op (the CI benchdiff gate fails on any alloc regression).

// modelBenchCase is one availability model on one substrate.
type modelBenchCase struct {
	name string
	m    avail.Model
	g    *graph.Graph
}

// buildModel builds a registered availability model or fails the benchmark.
func buildModel(b *testing.B, name string, p avail.Params) avail.Model {
	b.Helper()
	m, err := avail.Build(name, p)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// relabelBenchCases spans the resampling model families on the clique and
// sparse-G(n,p) substrates the sweeps spend their trials on.
func relabelBenchCases(b *testing.B) []modelBenchCase {
	b.Helper()
	return []modelBenchCase{
		{"uniform-r2-clique-128", buildModel(b, "uniform", avail.Params{Lifetime: 128, R: 2}), graph.Clique(128, false)},
		{"markov-clique-128", buildModel(b, "markov", avail.Params{Lifetime: 128, P: map[string]float64{"pi": 0.05, "runlen": 4}}), graph.Clique(128, false)},
		{"pt-ramp-clique-128", buildModel(b, "pt-ramp", avail.Params{Lifetime: 128}), graph.Clique(128, false)},
		{"uniform-r4-gnp-1024", buildModel(b, "uniform", avail.Params{Lifetime: 1024, R: 4}), graph.Gnp(1024, 8.0/1024, false, rng.New(3))},
	}
}

func BenchmarkKernelRelabel(b *testing.B) {
	for _, tc := range relabelBenchCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			sr := temporal.NewStaticReach(tc.g)
			net := temporal.MustNew(tc.g, tc.m.Lifetime(), temporal.Labeling{Off: make([]int32, tc.g.M()+1)})
			var lab temporal.Labeling
			stream := rng.New(7)
			// Warm the buffers so the loop measures the steady state.
			tc.m.Resample(tc.g, &lab, stream)
			if err := net.Relabel(lab); err != nil {
				b.Fatal(err)
			}
			temporal.SatisfiesTreachStatic(net, sr, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.m.Resample(tc.g, &lab, stream)
				if err := net.Relabel(lab); err != nil {
					b.Fatal(err)
				}
				temporal.SatisfiesTreachStatic(net, sr, nil)
			}
			b.ReportMetric(float64(net.LabelCount()), "timeedges")
		})
	}
}

// BenchmarkKernelDraw times the label draw of one batched trial alone,
// into reused buffers: Resample for the substrate models, one
// ScenarioState trial for the geometric scenario. KernelRelabel adds
// Relabel and a Treach check on top of the same draw, so the two together
// split a trial's cost between drawing and the rest. The two geometric
// cases (n = 100, lifetime 64) sit at either end of the grid's occupancy:
// r=0.03 bins the points into a 33×33 grid, about 0.1 points per cell,
// and the automatic radius of E17's full configuration and
// BenchmarkSweepBatchedGeometric into a 5×5 grid, about 4 per cell, where
// most of the time goes to distance tests and close pairs. The two Markov
// cases sit on either side of the per-edge chain kernel's choice:
// markov-clique-128 (pi 0.05, runlen 4) switches rarely and
// markov-pi0.5-runlen2-clique-128 on half its slots. Where rng's 8-lane
// kernels run (AVX-512F), both draw in lanes, as does pt-ramp-clique-128;
// elsewhere the first runs the run-length kernel and the second the
// conditional-move kernel. binom-clique-96 is E12's binomial law on E12's
// quick directed clique, one label per arc.
func BenchmarkKernelDraw(b *testing.B) {
	cases := []modelBenchCase{
		{"markov-pi0.5-runlen2-clique-128", buildModel(b, "markov", avail.Params{Lifetime: 128, P: map[string]float64{"pi": 0.5, "runlen": 2}}), graph.Clique(128, false)},
		{"binom-clique-96", buildModel(b, "binom", avail.Params{Lifetime: 96}), graph.Clique(96, true)},
	}
	for _, tc := range relabelBenchCases(b) {
		if tc.name == "markov-clique-128" || tc.name == "pt-ramp-clique-128" {
			cases = append(cases, tc)
		}
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var lab temporal.Labeling
			stream := rng.New(7)
			tc.m.Resample(tc.g, &lab, stream)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.m.Resample(tc.g, &lab, stream)
			}
			b.ReportMetric(float64(len(lab.Labels)), "labels")
		})
	}
	for _, gc := range []struct {
		name string
		p    map[string]float64
	}{
		{"geometric-n100-r0.03", map[string]float64{"radius": 0.03}},
		{"geometric-n100-auto", nil},
	} {
		b.Run(gc.name, func(b *testing.B) {
			m := buildModel(b, "geometric", avail.Params{Lifetime: 64, P: gc.p})
			st := m.(avail.IncrementalScenario).NewScenarioState(100)
			stream := rng.New(7)
			// Warm the buffers past the largest trial they are likely to meet.
			for i := 0; i < 64; i++ {
				st.Resample(stream)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var from []int32
			for i := 0; i < b.N; i++ {
				from, _, _ = st.Resample(stream)
			}
			b.ReportMetric(float64(len(from)), "edges")
		})
	}
}

func BenchmarkKernelRelabelRebuild(b *testing.B) {
	for _, tc := range relabelBenchCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			stream := rng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				temporal.SatisfiesTreachSerial(avail.Network(tc.m, tc.g, stream), nil)
			}
		})
	}
}

// --- sweep-engine micro-benchmarks --------------------------------------
//
// BenchmarkSweep* tracks the adaptive estimation subsystem in
// BENCH_kernels.json alongside the kernels (make bench matches
// BenchmarkKernel|BenchmarkSweep). The overhead/baseline pair isolates
// what the CI-driven loop costs on top of a fixed-trial run of the same
// trial budget.

// cheapObs is a near-free Bernoulli observable: the benchmark then
// measures harness machinery, not the trial body.
func cheapObs(trial int, r *rng.Stream) float64 {
	if r.Bernoulli(0.5) {
		return 1
	}
	return 0
}

// BenchmarkSweepAdaptiveOverhead runs the adaptive loop to its trial cap
// (the precision is unmeetable), so every iteration spends exactly 512
// trials plus the batching, folding and interval logic around them.
func BenchmarkSweepAdaptiveOverhead(b *testing.B) {
	b.ReportAllocs()
	trials := 0
	for i := 0; i < b.N; i++ {
		a := sweep.Adaptive{
			Seed: uint64(i) + 1,
			Kind: sweep.Proportion,
			Prec: sweep.Precision{Abs: 1e-9, MaxTrials: 512, Batch: 32},
		}
		est, err := a.Estimate(context.Background(), cheapObs)
		if err != nil {
			b.Fatal(err)
		}
		trials += est.N
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/op")
}

// BenchmarkSweepFixedBaseline is the same 512-trial budget as one
// sim.BatchRunner.Run without a model: the delta against AdaptiveOverhead
// is the adaptive machinery's cost.
func BenchmarkSweepFixedBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		(&sim.BatchRunner{Seed: uint64(i) + 1}).Run(context.Background(), 0, 512, func(trial int, r *rng.Stream, _ sim.Draw) sim.Metrics {
			return sim.Metrics{"x": cheapObs(trial, r)}
		})
	}
}

// BenchmarkSweepAdaptiveEarlyStop converges at ~±0.05 instead of running
// to the cap — the win adaptive stopping buys over a conservative fixed
// trial count.
func BenchmarkSweepAdaptiveEarlyStop(b *testing.B) {
	b.ReportAllocs()
	trials := 0
	for i := 0; i < b.N; i++ {
		a := sweep.Adaptive{
			Seed: uint64(i) + 1,
			Kind: sweep.Proportion,
			Prec: sweep.Precision{Abs: 0.05, MaxTrials: 4096, Batch: 32},
		}
		est, err := a.Estimate(context.Background(), cheapObs)
		if err != nil {
			b.Fatal(err)
		}
		trials += est.N
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/op")
}

// BenchmarkSweepThresholdBisect locates a crossing of a synthetic steep
// response with adaptive estimates at every probe — the full threshold
// stack end to end.
func BenchmarkSweepThresholdBisect(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		eval := func(x float64) (float64, error) {
			a := sweep.Adaptive{
				Seed: seed,
				Kind: sweep.Proportion,
				Prec: sweep.Precision{Abs: 0.1, MaxTrials: 256, Batch: 32},
			}
			est, err := a.Estimate(context.Background(), func(trial int, r *rng.Stream) float64 {
				p := 1 / (1 + math.Exp(-(x-0.4)/0.05))
				if r.Bernoulli(p) {
					return 1
				}
				return 0
			})
			return est.Point, err
		}
		cr, err := sweep.Threshold{Target: 0.5, Lo: 0, Hi: 1, Tol: 0.02}.Find(eval)
		if err != nil || !cr.Converged {
			b.Fatalf("bisect failed: %v %+v", err, cr)
		}
	}
}

// --- batched vs rebuild sweep benchmarks --------------------------------
//
// BenchmarkSweepBatched*/BenchmarkSweepRebuild* run the same adaptive cell
// — an i.i.d.-uniform-labeled treach estimate driven to a fixed 256-trial
// budget — through the two execution paths: sim.BatchRunner (per-worker
// substrate+index, labels resampled in place, static reach cached) versus
// the rebuild oracle (avail.Network per trial). Estimates are
// bit-identical; the trials/sec ratio is the batched engine's headline
// number (≥3× on the clique, the sparse-gnp cell is bounded by the
// temporal word scan both paths share).

func sweepCellBench(b *testing.B, m avail.Model, g *graph.Graph, batched bool) {
	b.Helper()
	prec := sweep.Precision{Abs: 1e-9, MaxTrials: 256, Batch: 64}
	treach := func(trial int, net *temporal.Network, r *rng.Stream) float64 {
		if temporal.SatisfiesTreachSerial(net, nil) {
			return 1
		}
		return 0
	}
	// The substrate StaticReach shortcut mirrors SweepTarget.Source: it
	// applies only to fixed-substrate models — scenario trials run on a
	// per-trial support graph, so they answer the serial treach question.
	var sr *temporal.StaticReach
	if batched && !avail.IsScenario(m) {
		sr = temporal.NewStaticReach(g)
	}
	trials := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		a := sweep.Adaptive{Seed: seed, Kind: sweep.Proportion, Prec: prec}
		var est sweep.Estimate
		var err error
		if batched {
			br := sim.BatchRunner{Model: m, Substrate: g, Seed: seed}
			est, err = a.EstimateSource(context.Background(), func(ctx context.Context, start, count int) ([]float64, error) {
				return br.ObserveFrom(ctx, start, count, func(trial int, net *temporal.Network, r *rng.Stream) float64 {
					if sr == nil {
						return treach(trial, net, r)
					}
					if temporal.SatisfiesTreachStatic(net, sr, nil) {
						return 1
					}
					return 0
				})
			})
		} else {
			est, err = a.Estimate(context.Background(), func(trial int, r *rng.Stream) float64 {
				return treach(trial, avail.Network(m, g, r), r)
			})
		}
		if err != nil {
			b.Fatal(err)
		}
		trials += est.N
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/op")
}

func sweepBenchClique(b *testing.B) (avail.Model, *graph.Graph) {
	b.Helper()
	return buildModel(b, "uniform", avail.Params{Lifetime: 96, R: 4}), graph.Clique(96, false)
}

func sweepBenchGnp(b *testing.B) (avail.Model, *graph.Graph) {
	b.Helper()
	return buildModel(b, "uniform", avail.Params{Lifetime: 256, R: 8}), graph.Gnp(256, 8.0/256, false, rng.New(3))
}

func BenchmarkSweepRebuildIIDClique(b *testing.B) {
	m, g := sweepBenchClique(b)
	sweepCellBench(b, m, g, false)
}

func BenchmarkSweepBatchedIIDClique(b *testing.B) {
	m, g := sweepBenchClique(b)
	sweepCellBench(b, m, g, true)
}

func BenchmarkSweepRebuildIIDGnp(b *testing.B) {
	m, g := sweepBenchGnp(b)
	sweepCellBench(b, m, g, false)
}

func BenchmarkSweepBatchedIIDGnp(b *testing.B) {
	m, g := sweepBenchGnp(b)
	sweepCellBench(b, m, g, true)
}

// sweepGeomCellBench is the mobility cell: the E17 full-size configuration
// (n = 100 torus walkers, lifetime 64, auto radius) driven to the same
// fixed 256-trial budget. The rebuild arm draws every trial's support
// graph, labels and indexes from scratch (avail.Network); the batched arm
// runs the incremental engine — per-slot grid runs in the scenario
// state, then each trial's whole edge list and labels handed from
// ScenarioState to RelabelEdges on a worker-owned network, which rebuilds
// its CSR in place. The observable is a single-source earliest-arrival
// sweep, cheap relative to instance construction, so the ratio gauges the
// two engines rather than a measurement kernel both arms share.
func sweepGeomCellBench(b *testing.B, batched bool) {
	b.Helper()
	m := buildModel(b, "geometric", avail.Params{Lifetime: 64})
	g := graph.Clique(100, false) // scenario models use only the vertex count
	prec := sweep.Precision{Abs: 1e-9, MaxTrials: 256, Batch: 64}
	reach := func(net *temporal.Network, arr []int32) float64 {
		if net.EarliestArrivalsInto(0, arr) == len(arr) {
			return 1
		}
		return 0
	}
	trials := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		a := sweep.Adaptive{Seed: seed, Kind: sweep.Proportion, Prec: prec}
		var est sweep.Estimate
		var err error
		if batched {
			br := sim.BatchRunner{Model: m, Substrate: g, Seed: seed}
			est, err = a.EstimateSource(context.Background(), func(ctx context.Context, start, count int) ([]float64, error) {
				return br.ObserveFrom(ctx, start, count, func(trial int, net *temporal.Network, r *rng.Stream) float64 {
					return reach(net, make([]int32, g.N()))
				})
			})
		} else {
			est, err = a.Estimate(context.Background(), func(trial int, r *rng.Stream) float64 {
				return reach(avail.Network(m, g, r), make([]int32, g.N()))
			})
		}
		if err != nil {
			b.Fatal(err)
		}
		trials += est.N
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/op")
}

func BenchmarkSweepRebuildGeometric(b *testing.B) { sweepGeomCellBench(b, false) }
func BenchmarkSweepBatchedGeometric(b *testing.B) { sweepGeomCellBench(b, true) }

// --- observability micro-benchmarks -------------------------------------
//
// BenchmarkObs* pins the record path of the metrics layer
// (internal/obs): a counter bump, a histogram observation and a span
// must stay a handful of nanoseconds at 0 allocs/op, because the
// instrumented layers (sim, temporal, service) call them from code whose
// own benchmarks are alloc-gated. Tracked in BENCH_kernels.json and
// gated by cmd/benchdiff alongside the Kernel* family.

func BenchmarkObsCounterInc(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("bench_counter_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsCounterIncParallel(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("bench_counter_par_total", "bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	r := obs.NewRegistry()
	h := r.Histogram("bench_hist_ns", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

// BenchmarkObsHistogramObserveParallel is the contended case the shard
// layout exists for: every worker hammers one histogram.
func BenchmarkObsHistogramObserveParallel(b *testing.B) {
	r := obs.NewRegistry()
	h := r.Histogram("bench_hist_par_ns", "bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			h.Observe(i)
			i++
		}
	})
}

// BenchmarkObsVecWith measures the labeled-series lookup — the reason
// instrumented code resolves handles once at init instead of calling
// With per event.
func BenchmarkObsVecWith(b *testing.B) {
	r := obs.NewRegistry()
	vec := r.CounterVec("bench_vec_total", "bench", "k")
	vec.With("v").Inc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.With("v").Inc()
	}
}

func BenchmarkObsSpan(b *testing.B) {
	tr := obs.NewTracer(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Start("bench.op").End()
	}
}

// BenchmarkObsSpanAttrs is the traced-request record path as the service
// middleware and sweepworker actually use it: a span plus string and int
// attributes and the error check, still 0 allocs/op — attributes live in
// a fixed inline array, never a map.
func BenchmarkObsSpanAttrs(b *testing.B) {
	tr := obs.NewTracer(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("bench.op")
		sp.SetAttr("worker", "w1")
		sp.SetAttrInt("cell", int64(i))
		sp.End()
	}
}

// BenchmarkObsInjectExtract pins the trace-context hop a worker pays on
// every POST: render the traceparent into a reused buffer and parse it
// back, 0 allocs/op.
func BenchmarkObsInjectExtract(b *testing.B) {
	sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: 42}
	buf := make([]byte, 0, obs.TraceparentLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sc.AppendTraceparent(buf[:0])
		got, ok := obs.ParseTraceparentBytes(buf)
		if !ok || got != sc {
			b.Fatal("traceparent round trip failed")
		}
	}
}

// BenchmarkSweepE18CellQuick is one real sweep cell at E18 quick scale: a
// markov-labeled directed clique estimated to ±0.12 — the unit the
// connectivity-threshold experiment spends.
func BenchmarkSweepE18CellQuick(b *testing.B) {
	g := graph.Clique(32, true)
	m, err := avail.NewMarkov(32, 0.05, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := sweep.Adaptive{
			Seed: uint64(i) + 1,
			Kind: sweep.Proportion,
			Prec: sweep.Precision{Abs: 0.12, MinTrials: 8, MaxTrials: 96, Batch: 16},
		}
		_, err := a.Estimate(context.Background(), func(trial int, r *rng.Stream) float64 {
			net := avail.Network(m, g, r)
			if temporal.SatisfiesTreachSerial(net, nil) {
				return 1
			}
			return 0
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// queryBenchNet is the serving benchmark fixture: the sparse G(n,p)
// regime at n = 1024, the scale the CI query-smoke job boots.
func queryBenchNet(b *testing.B) *temporal.Network {
	b.Helper()
	return sparseGnp(1024, 2014)
}

// BenchmarkQueryIndexHitFull is the steady-state serving hot path: a
// point query answered from the precomputed full table. The contract is
// ≤ 1µs and 0 allocs/op.
func BenchmarkQueryIndexHitFull(b *testing.B) {
	ix := qindex.New(queryBenchNet(b), qindex.Options{Mode: qindex.ModeFull})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Arrival(i&1023, (i*7)&1023, 1)
	}
}

// BenchmarkQueryIndexHitLRU hits resident LRU rows: the map + list touch
// the full table avoids.
func BenchmarkQueryIndexHitLRU(b *testing.B) {
	ix := qindex.New(queryBenchNet(b), qindex.Options{Mode: qindex.ModeLRU})
	for s := 0; s < 64; s++ {
		ix.Arrival(s, 1, 1) // warm 64 rows
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Arrival(i&63, (i*7)&1023, 1)
	}
}

// BenchmarkQueryMissCold is the uncached path: ModeOff keeps nothing
// resident, so every query runs one point scan.
func BenchmarkQueryMissCold(b *testing.B) {
	ix := qindex.New(queryBenchNet(b), qindex.Options{Mode: qindex.ModeOff})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Arrival(i&1023, (i*7)&1023, 1)
	}
}

// lateQuery is one (src, dst, start) point query.
type lateQuery struct {
	src, dst int
	start    int32
}

// lateStartQueries builds the query workload's network shape at n = 1024:
// G(n, 2·ln n/n) with one uniform label per edge and lifetime n. It
// returns the network and a fixed list of late queries, uniform sources
// and destinations with starts uniform on [2, n/2].
func lateStartQueries(b *testing.B) (*temporal.Network, []lateQuery) {
	b.Helper()
	const n = 1024
	r := rng.New(2015)
	g, err := graph.Family("gnp", n, graph.FamilyOpts{}, r)
	if err != nil {
		b.Fatal(err)
	}
	net := avail.Network(buildModel(b, "uniform", avail.Params{Lifetime: n}), g, r)
	qs := make([]lateQuery, 256)
	for i := range qs {
		qs[i] = lateQuery{r.Intn(n), r.Intn(n), int32(2 + r.Intn(n/2-1))}
	}
	return net, qs
}

// lateSink keeps BenchmarkQueryLateStart's answers live.
var lateSink int32

// BenchmarkQueryLateStart compares the two ways to answer a late-start
// point query: point goes through a ModeFull index (a table check, then
// one time-edge scan from start until dst is reached), row computes the
// whole restricted frontier row the index used to compute and discard.
func BenchmarkQueryLateStart(b *testing.B) {
	net, qs := lateStartQueries(b)
	b.Run("point", func(b *testing.B) {
		ix := qindex.New(net, qindex.Options{Mode: qindex.ModeFull})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			lateSink = ix.Arrival(q.src, q.dst, q.start)
		}
	})
	b.Run("row", func(b *testing.B) {
		row := make([]int32, net.Graph().N())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			net.EarliestArrivalsFromInto(q.src, q.start, row)
			lateSink = row[q.dst]
		}
	})
}

// BenchmarkQueryFullBuild measures the 64-way batched full-table
// precompute the serve process pays once at startup.
func BenchmarkQueryFullBuild(b *testing.B) {
	net := queryBenchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := qindex.New(net, qindex.Options{Mode: qindex.ModeFull})
		if ix.N() != 1024 {
			b.Fatal("bad build")
		}
	}
}
