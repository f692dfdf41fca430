package avail

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// TimeVarying is the p(t)-schedule model: slot t ∈ {1,…,a} is a label of
// each edge independently with probability p(t). Where the i.i.d. laws fix
// a per-edge budget and move the mass, p(t) schedules make availability a
// property of global time: diurnal load (periodic), warm-up (ramp), or a
// contact burst (burst). All edges share the schedule but draw
// independently.
type TimeVarying struct {
	name  string
	probs []float64  // probs[t-1] = p(t), already clamped to [0,1]
	coins []rng.Coin // coins[t-1] = p(t) compiled for rng.AppendSchedules
}

// NewRamp returns the linear schedule from p0 at t=1 to p1 at t=a.
func NewRamp(a int, p0, p1 float64) (TimeVarying, error) {
	if err := checkSlotProb("ramp p0", p0); err != nil {
		return TimeVarying{}, err
	}
	if err := checkSlotProb("ramp p1", p1); err != nil {
		return TimeVarying{}, err
	}
	probs := make([]float64, a)
	for t := 1; t <= a; t++ {
		frac := 0.0
		if a > 1 {
			frac = float64(t-1) / float64(a-1)
		}
		probs[t-1] = p0 + (p1-p0)*frac
	}
	return newTimeVarying(fmt.Sprintf("pt-ramp(%.3g→%.3g)", p0, p1), a, probs)
}

// NewPeriodic returns the sinusoidal schedule
// p(t) = base·(1 + amp·sin(2π·cycles·(t−1)/a)), clamped to [0,1].
func NewPeriodic(a int, base, amp, cycles float64) (TimeVarying, error) {
	if err := checkSlotProb("periodic base", base); err != nil {
		return TimeVarying{}, err
	}
	if !(amp >= 0 && amp < math.Inf(1)) {
		return TimeVarying{}, fmt.Errorf("periodic needs finite amp >= 0, got %v", amp)
	}
	if !(cycles > 0 && cycles < math.Inf(1)) {
		return TimeVarying{}, fmt.Errorf("periodic needs finite cycles > 0, got %v", cycles)
	}
	probs := make([]float64, a)
	for t := 1; t <= a; t++ {
		p := base * (1 + amp*math.Sin(2*math.Pi*cycles*float64(t-1)/float64(a)))
		probs[t-1] = math.Min(1, math.Max(0, p))
	}
	return newTimeVarying(fmt.Sprintf("pt-periodic(base=%.3g,amp=%.3g,c=%.3g)", base, amp, cycles), a, probs)
}

// NewBurst returns the window schedule: probability high on the slots
// covered by the window [start, start+width) (fractions of the lifetime),
// low everywhere else. The window always covers at least one slot.
func NewBurst(a int, low, high, start, width float64) (TimeVarying, error) {
	if err := checkSlotProb("burst low", low); err != nil {
		return TimeVarying{}, err
	}
	if err := checkSlotProb("burst high", high); err != nil {
		return TimeVarying{}, err
	}
	if !(start >= 0 && start < 1) {
		return TimeVarying{}, fmt.Errorf("burst needs start in [0,1), got %v", start)
	}
	if !(width > 0 && width <= 1) {
		return TimeVarying{}, fmt.Errorf("burst needs width in (0,1], got %v", width)
	}
	// Epsilon guards keep slot counts stable under decimal fractions that
	// are inexact in binary (0.4+0.2 > 0.6).
	lo := int(math.Floor(start*float64(a)+1e-9)) + 1
	count := int(math.Ceil(width*float64(a) - 1e-9))
	if count < 1 {
		count = 1
	}
	hi := lo + count - 1
	if hi > a {
		hi = a
	}
	probs := make([]float64, a)
	for t := 1; t <= a; t++ {
		if t >= lo && t <= hi {
			probs[t-1] = high
		} else {
			probs[t-1] = low
		}
	}
	return newTimeVarying(fmt.Sprintf("pt-burst(%.3g/%.3g@%.3g+%.3g)", low, high, start, width), a, probs)
}

func newTimeVarying(name string, a int, probs []float64) (TimeVarying, error) {
	if a < 1 {
		return TimeVarying{}, fmt.Errorf("pt schedule needs lifetime >= 1, got %d", a)
	}
	coins := make([]rng.Coin, len(probs))
	for i, p := range probs {
		coins[i] = rng.NewCoin(p)
	}
	return TimeVarying{name: name, probs: probs, coins: coins}, nil
}

func checkSlotProb(what string, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("%s must be a probability in [0,1], got %v", what, p)
	}
	return nil
}

func (m TimeVarying) Name() string  { return m.name }
func (m TimeVarying) Lifetime() int { return len(m.probs) }

// Mass returns Σ_t p(t), the expected number of labels per edge.
func (m TimeVarying) Mass() float64 {
	sum := 0.0
	for _, p := range m.probs {
		sum += p
	}
	return sum
}

// Resample draws every edge into lab's existing buffers in one
// rng.AppendSchedules call over the compiled p(t) coins.
// resample_ref_test.go pins it, labels and stream consumption, to a
// per-slot Bernoulli loop.
func (m TimeVarying) Resample(g *graph.Graph, lab *temporal.Labeling, stream *rng.Stream) {
	lab.Reset(g.M())
	lab.Labels = stream.AppendSchedules(lab.Labels, lab.Off, m.coins)
}

func init() {
	rampKnobs := []Knob{
		{Name: "p0", Default: 0.02, Doc: "slot probability at t=1"},
		{Name: "p1", Default: 0.3, Doc: "slot probability at t=lifetime"},
	}
	newRamp := func(p Params) (Model, error) {
		return NewRamp(p.lifetime(), p.get("p0", 0.02), p.get("p1", 0.3))
	}
	Register(Builder{
		Name:  "pt",
		Doc:   "time-varying availability p(t); alias for pt-ramp",
		Knobs: rampKnobs,
		New:   newRamp,
	})
	Register(Builder{
		Name:  "pt-ramp",
		Doc:   "time-varying availability: p(t) ramps linearly from p0 to p1",
		Knobs: rampKnobs,
		New:   newRamp,
	})
	Register(Builder{
		Name: "pt-periodic",
		Doc:  "time-varying availability: p(t) = base·(1 + amp·sin(2π·cycles·t/a)), clamped",
		Knobs: []Knob{
			{Name: "base", Default: 0.15, Doc: "mean slot probability"},
			{Name: "amp", Default: 0.8, Doc: "relative modulation depth, >= 0"},
			{Name: "cycles", Default: 3, Doc: "full periods over the lifetime, > 0"},
		},
		New: func(p Params) (Model, error) {
			return NewPeriodic(p.lifetime(), p.get("base", 0.15), p.get("amp", 0.8), p.get("cycles", 3))
		},
	})
	Register(Builder{
		Name: "pt-burst",
		Doc:  "time-varying availability: probability high inside the [start,start+width) window, low outside",
		Knobs: []Knob{
			{Name: "low", Default: 0.01, Doc: "slot probability outside the burst"},
			{Name: "high", Default: 0.5, Doc: "slot probability inside the burst"},
			{Name: "start", Default: 0.4, Doc: "burst start as a fraction of the lifetime, in [0,1)"},
			{Name: "width", Default: 0.2, Doc: "burst width as a fraction of the lifetime, in (0,1]"},
		},
		New: func(p Params) (Model, error) {
			return NewBurst(p.lifetime(), p.get("low", 0.01), p.get("high", 0.5),
				p.get("start", 0.4), p.get("width", 0.2))
		},
	})
}
