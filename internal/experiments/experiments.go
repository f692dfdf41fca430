package experiments

import (
	"context"

	"repro/internal/avail"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/temporal"
)

// Config scales an experiment run.
type Config struct {
	// Seed is the base Monte-Carlo seed; every reported number is a
	// deterministic function of it.
	Seed uint64
	// Quick shrinks sizes and trial counts to bench/CI scale. Full runs
	// (Quick=false) use each driver's paper-scale sizes.
	Quick bool
	// Ctx, when non-nil, cancels a driver mid-run: the Monte-Carlo
	// harness stops claiming trials and drivers skip remaining phases, so
	// the driver returns quickly with partial (discardable) output. Use
	// the Run wrapper to get the cancellation surfaced as an error.
	// Neither Ctx nor Progress affects the numbers of completed runs.
	Ctx context.Context
	// Progress, when non-nil, is called once per completed Monte-Carlo
	// trial, from worker goroutines; it must be safe for concurrent use.
	Progress func()
	// Workers bounds trial parallelism inside the sim harness; 0 means
	// GOMAXPROCS. Completed results are bit-identical for every value —
	// the golden determinism tests pin this.
	Workers int
	// Model optionally names an availability model (internal/avail
	// registry) for the model-aware drivers: E16 runs only the named
	// pt schedule instead of sweeping all three. Other drivers ignore it.
	Model string
	// MP overrides individual availability-model parameters by name for
	// the model-aware drivers (E15: pi, runlen; E16: schedule knobs;
	// E17: radius, step). Drivers read overrides through cfg.mp.
	MP map[string]float64
}

// run executes trials 0 … trials−1 on the Monte-Carlo engine with the
// Config's context, workers and progress hook wired in. Each trial draws
// its instance of availability model m over substrate g through draw (E10
// after two phone-call walks, the others first thing), so per-worker
// networks relabel in place instead of rebuilding; E7b's coupon draws and
// E9's G(n, p) substrates pass nil for m and g and draw no network. free
// is g's worker free list, shared by the rows a driver runs over g and
// dropped with g; nil gives the call a private one. Completed runs are
// bit-identical with or without the plumbing.
func (cfg Config) run(free *sim.FreeList, trials int, seed uint64, m avail.Model, g *graph.Graph, trial sim.Trial) *sim.Results {
	b := &sim.BatchRunner{Model: m, Substrate: g, Seed: seed, Workers: cfg.Workers, OnTrial: cfg.Progress, FreeList: free}
	res, _ := b.Run(cfg.ctx(), 0, trials, trial)
	return res
}

// uniform is the UNI-CASE model: r i.i.d. uniform labels per edge from
// {1,…,a}; uniform(n, 1) on n vertices is the normalized URT network.
func uniform(a, r int) avail.IID { return avail.NewIID(dist.NewUniform(a), r) }

// mp returns the named model-parameter override, or def when absent.
func (cfg Config) mp(name string, def float64) float64 {
	if v, ok := cfg.MP[name]; ok {
		return v
	}
	return def
}

func (cfg Config) ctx() context.Context {
	if cfg.Ctx != nil {
		return cfg.Ctx
	}
	return context.Background()
}

// cancelled reports whether the Config's context is done; drivers whose
// inner loops run outside the sim harness poll it between phases.
func (cfg Config) cancelled() bool {
	return cfg.Ctx != nil && cfg.Ctx.Err() != nil
}

// Result is a completed experiment: tables and ASCII figures.
type Result struct {
	Tables  []*table.Table
	Figures []string
}

// Experiment couples an experiment id to its driver.
type Experiment struct {
	// ID is the experiment id, e.g. "E1".
	ID string
	// Title is a one-line description.
	Title string
	// Anchor names the paper result being reproduced.
	Anchor string
	// Run executes the experiment.
	Run func(Config) Result
}

// All returns every experiment in id order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Temporal diameter of the normalized URT clique", "Theorems 3–4 + Ω(log n) remark", E1Diameter},
		{"E2", "Temporal diameter vs lifetime", "Theorem 5", E2Lifetime},
		{"E3", "Expansion Process success and arrival times", "Algorithm 1, Fig. 1, Theorem 3", E3Expansion},
		{"E4", "Flooding dissemination on the URT clique", "Section 3.5", E4Spread},
		{"E5", "Star reachability phase transition", "Theorem 6(a,b), Fig. 2", E5StarReachability},
		{"E6", "Price of Randomness on the star", "Theorem 6", E6StarPoR},
		{"E7", "Reachability with r = c·d·ln n labels", "Theorem 7, Claim 1, Fig. 3", E7GeneralReachability},
		{"E8", "Price of Randomness bounds on general graphs", "Theorem 8", E8PoRGeneral},
		{"E9", "Erdős–Rényi connectivity threshold", "Theorem 5 proof substrate", E9GnpConnectivity},
		{"E10", "Random phone-call baselines vs flooding", "Section 1.1", E10PhoneCall},
		{"E11", "Multi-label clique ablation", "Section 2 note (multi-label)", E11MultiLabel},
		{"E12", "F-RTN label-law ablation", "Section 2 note (F-CASE)", E12Distributions},
		{"E13", "Directed vs undirected clique", "Remark 1", E13Remark1},
		{"E14", "Availability windows (interval bridge)", "Section 1.2 (continuous availabilities)", E14Windows},
		{"E15", "Markov on/off links: diameter vs persistence", "Correlated availability (Díaz–Mitsche–Pérez gap)", E15MarkovDiameter},
		{"E16", "Time-varying p(t): connectivity vs schedule shape", "Time-dependent availability (§1.2 contrast)", E16TimeVarying},
		{"E17", "Dynamic geometric scenario: radius threshold", "Dynamic random geometric graphs (PAPERS.md)", E17Geometric},
		{"E18", "Adaptive connectivity-threshold estimation: c* in p = c·ln n/n", "Connectivity threshold, as a measured quantity (internal/sweep)", E18ConnectivityThreshold},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// serialDiameter computes the instance temporal diameter with at most
// maxSources earliest-arrival passes, run serially — the right shape inside
// already-parallel Monte-Carlo trials. When n > maxSources the sources are
// a uniform sample and the result is a lower estimate of the true max.
func serialDiameter(net *temporal.Network, maxSources int, r *rng.Stream) temporal.DiameterResult {
	n := net.Graph().N()
	var sources []int
	if n <= maxSources {
		sources = make([]int, n)
		for i := range sources {
			sources[i] = i
		}
	} else {
		sources = r.Sample(n, maxSources)
	}
	return temporal.DiameterFromSerial(net, sources)
}
