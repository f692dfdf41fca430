package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind is a metric family's instrument type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// series is one labeled instrument inside a family. Exactly one of the
// instrument fields is set, matching the family kind; fn, when non-nil,
// supersedes g for sampled gauges.
type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	h           *Histogram
	fn          func() float64
}

// family is one named metric family: a kind, a help string, a label
// schema, and the labeled series registered under it.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu     sync.Mutex
	series map[string]*series // key: label values joined by 0xff
	order  []string           // registration order of keys; sorted at exposition
}

// Registry holds metric families and renders them for exposition.
// NewRegistry gives tests isolation; the package-level constructors use
// the process default registry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry behind the package-level
// constructors and Handler.
var defaultRegistry = NewRegistry()

// Default returns the process default registry.
func Default() *Registry { return defaultRegistry }

// validName reports whether s is a legal Prometheus metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register returns the family under name, creating it on first use.
// Re-registering an existing name with the same kind and label schema
// returns the existing family (packages may share a metric); a mismatch
// panics — two meanings for one name is a programming error the process
// must not start with.
func (r *Registry) register(name, help string, kind Kind, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels,
		series: make(map[string]*series)}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesKey joins label values with a separator no valid UTF-8 label
// value contains at a series boundary.
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

// get returns the series under the label values, creating it on first
// use with mk.
func (f *family) get(values []string, mk func() *series) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labelValues = values
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// --- constructors -------------------------------------------------------

// Counter registers (or finds) an unlabeled counter family and returns
// its single instrument.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec is a labeled counter family; resolve instruments once with
// With and keep the handles.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a counter family with the given label
// schema.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labels)}
}

// With returns the counter for the label values, creating it on first
// use. Resolve handles at setup time — With takes the family lock and
// allocates on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() *series { return &series{c: new(Counter)} }).c
}

// Gauge registers (or finds) an unlabeled gauge family and returns its
// single instrument.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a gauge family with the given label
// schema.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labels)}
}

// With returns the gauge for the label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() *series { return &series{g: new(Gauge)} }).g
}

// GaugeFunc registers a gauge whose value is sampled by fn at exposition
// time (e.g. a queue length read from a channel). Re-registering the same
// name replaces the callback — the latest owner wins, which keeps
// managers recreated across tests from tripping over a stale closure.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil)
	s := f.get(nil, func() *series { return &series{g: new(Gauge)} })
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or finds) an unlabeled histogram family and
// returns its single instrument.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramVec(name, help).With()
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a histogram family with the given
// label schema.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, KindHistogram, labels)}
}

// With returns the histogram for the label values, creating it on first
// use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() *series { return &series{h: new(Histogram)} }).h
}

// snapshot returns the families sorted by name, each with its series in
// label-value order — the stable iteration exposition renders.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns the family's series sorted by label values.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	f.mu.Unlock()
	return out
}

// --- package-level convenience over the default registry ---------------

// NewCounter registers name on the default registry. See Registry.Counter.
func NewCounter(name, help string) *Counter { return defaultRegistry.Counter(name, help) }

// NewCounterVec registers name on the default registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return defaultRegistry.CounterVec(name, help, labels...)
}

// NewGauge registers name on the default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.Gauge(name, help) }

// NewHistogram registers name on the default registry.
func NewHistogram(name, help string) *Histogram { return defaultRegistry.Histogram(name, help) }

// NewHistogramVec registers name on the default registry.
func NewHistogramVec(name, help string, labels ...string) *HistogramVec {
	return defaultRegistry.HistogramVec(name, help, labels...)
}
