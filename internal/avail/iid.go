package avail

import (
	"fmt"
	"math"

	"repro/internal/assign"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// IID is the paper's F-CASE as an availability model: R independent labels
// per edge drawn from one dist law through assign.FromDistributionInto, so
// networks built through the registry are bit-identical to ones built
// directly from package assign.
type IID struct {
	law dist.Distribution
	r   int
}

// NewIID wraps a label law with an R-labels-per-edge budget (r < 1 is
// raised to 1).
func NewIID(law dist.Distribution, r int) IID {
	if r < 1 {
		r = 1
	}
	return IID{law: law, r: r}
}

func (m IID) Name() string {
	if m.r == 1 {
		return m.law.Name()
	}
	return fmt.Sprintf("%s×%d", m.law.Name(), m.r)
}

func (m IID) Lifetime() int { return m.law.Lifetime() }

// Resample draws R labels per edge, M×R draws in edge order, into lab's
// existing buffers.
func (m IID) Resample(g *graph.Graph, lab *temporal.Labeling, stream *rng.Stream) {
	assign.FromDistributionInto(lab, g, m.law, m.r, stream)
}

func init() {
	Register(Builder{
		Name: "uniform",
		Doc:  "i.i.d. UNI-CASE: R uniform labels per edge from {1,…,lifetime}",
		New: func(p Params) (Model, error) {
			return NewIID(dist.NewUniform(p.lifetime()), p.r()), nil
		},
	})
	Register(Builder{
		Name: "binom",
		Doc:  "i.i.d. F-CASE: R shifted-binomial labels per edge, mass peaking near p·lifetime",
		Knobs: []Knob{
			{Name: "p", Default: 0.5, Doc: "binomial success probability in (0,1]"},
		},
		New: func(p Params) (Model, error) {
			q := p.get("p", 0.5)
			if !(q > 0 && q <= 1) {
				return nil, fmt.Errorf("binom needs p in (0,1], got %v", q)
			}
			return NewIID(dist.NewBinomial(q, p.lifetime()), p.r()), nil
		},
	})
	Register(Builder{
		Name: "geom",
		Doc:  "i.i.d. F-CASE: R truncated-geometric labels per edge, mass on the earliest labels",
		Knobs: []Knob{
			{Name: "p", Default: 0, Doc: "geometric success probability in (0,1]; 0 means 2/lifetime"},
		},
		New: func(p Params) (Model, error) {
			q := p.get("p", 0)
			if q == 0 {
				// The default 2/lifetime exceeds 1 for lifetimes below 2.
				q = math.Min(1, 2/float64(p.lifetime()))
			}
			if !(q > 0 && q <= 1) {
				return nil, fmt.Errorf("geom needs p in (0,1], got %v", q)
			}
			return NewIID(dist.NewGeometric(q, p.lifetime()), p.r()), nil
		},
	})
	Register(Builder{
		Name: "zipf",
		Doc:  "i.i.d. F-CASE: R Zipf labels per edge, polynomial early-mass tail",
		Knobs: []Knob{
			{Name: "s", Default: 1.1, Doc: "Zipf exponent, > 0"},
		},
		New: func(p Params) (Model, error) {
			s := p.get("s", 1.1)
			if !(s > 0) {
				return nil, fmt.Errorf("zipf needs s > 0, got %v", s)
			}
			return NewIID(dist.NewZipf(s, p.lifetime()), p.r()), nil
		},
	})
}
