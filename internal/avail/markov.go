package avail

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// Markov is the correlated on/off link-dynamics model: each edge runs an
// independent two-state Markov chain over the slots {1,…,a}, started from
// its stationary distribution, and carries label t exactly when the chain
// is "on" at slot t. With birth probability alpha = P(off→on) and death
// probability beta = P(on→off), the stationary availability is
// pi = alpha/(alpha+beta) and on-runs are Geometric(beta) with mean
// 1/beta — so labels arrive in bursts whose persistence is tunable while
// the expected label budget pi·a per edge stays fixed. beta = 1 recovers
// (nearly) i.i.d. slots; small beta yields long correlated runs, the
// regime of the Díaz–Mitsche–Pérez dynamic-graph models.
type Markov struct {
	a           int
	alpha, beta float64
	pi, runlen  float64
}

// NewMarkov builds the chain from the stationary availability pi ∈ (0,1)
// and the mean on-run length runlen ≥ 1: beta = 1/runlen and
// alpha = beta·pi/(1−pi). The pair must keep alpha ≤ 1 (short runs at high
// availability are infeasible: leaving "on" quickly forces re-entering it
// faster than once per slot).
func NewMarkov(a int, pi, runlen float64) (Markov, error) {
	if a < 1 {
		return Markov{}, fmt.Errorf("markov needs lifetime >= 1, got %d", a)
	}
	if !(pi > 0 && pi < 1) {
		return Markov{}, fmt.Errorf("markov needs pi in (0,1), got %v", pi)
	}
	if !(runlen >= 1) {
		return Markov{}, fmt.Errorf("markov needs runlen >= 1, got %v", runlen)
	}
	beta := 1 / runlen
	alpha := beta * pi / (1 - pi)
	if alpha > 1 {
		return Markov{}, fmt.Errorf("markov pi=%v runlen=%v needs alpha=%v > 1", pi, runlen, alpha)
	}
	return Markov{a: a, alpha: alpha, beta: beta, pi: pi, runlen: runlen}, nil
}

func (m Markov) Name() string {
	return fmt.Sprintf("markov(pi=%.3g,L=%.3g)", m.pi, m.runlen)
}

func (m Markov) Lifetime() int { return m.a }

// Resample runs every edge's chain into lab's existing buffers in one
// rng.AppendChains call, with start, leave and enter coins of probability
// pi, beta and alpha. resample_ref_test.go pins it, labels and stream
// consumption, to a per-slot Bernoulli loop.
func (m Markov) Resample(g *graph.Graph, lab *temporal.Labeling, stream *rng.Stream) {
	lab.Reset(g.M())
	start, leave, enter := rng.NewCoin(m.pi), rng.NewCoin(m.beta), rng.NewCoin(m.alpha)
	lab.Labels = stream.AppendChains(lab.Labels, lab.Off, m.a, start, leave, enter)
}

func init() {
	Register(Builder{
		Name: "markov",
		Doc:  "correlated on/off link dynamics: per-edge two-state Markov chain at stationarity",
		Knobs: []Knob{
			{Name: "pi", Default: 0.25, Doc: "stationary availability P(slot is a label), in (0,1)"},
			{Name: "runlen", Default: 4, Doc: "mean on-run length 1/beta, >= 1"},
		},
		New: func(p Params) (Model, error) {
			return NewMarkov(p.lifetime(), p.get("pi", 0.25), p.get("runlen", 4))
		},
	})
}
