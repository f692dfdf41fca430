package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/obs"
)

// tracer records the traced run's spans on a private obs.Tracer, so the
// program's own default tracer and its ring stay untouched. A nil *tracer
// is the untraced run: every span it opens is obs's no-op zero span.
type tracer struct {
	t *obs.Tracer
}

// traceCapacity bounds the in-memory span ring; the traced run opens
// spans per pass, driver, search, batch and sampled trial or request,
// which stays well below it.
const traceCapacity = 1 << 14

func newTracer() *tracer { return &tracer{t: obs.NewTracer(traceCapacity)} }

// root opens a span under a fresh trace id.
func (tr *tracer) root(name string) obs.Span {
	if tr == nil {
		return obs.Span{}
	}
	return tr.t.Start(name)
}

// remote opens a span continuing the trace in sc.
func (tr *tracer) remote(name string, sc obs.SpanContext) obs.Span {
	if tr == nil {
		return obs.Span{}
	}
	return tr.t.StartRemote(name, sc)
}

// records returns the retained spans, oldest first, and fails when the
// ring overwrote any: self times need every child.
func (tr *tracer) records() ([]obs.SpanRecord, error) {
	recs := tr.t.Snapshot()
	if tot := tr.t.Total(); tot > uint64(len(recs)) {
		return nil, fmt.Errorf("trace ring overflowed: %d spans recorded, %d kept", tot, len(recs))
	}
	return recs, nil
}

// dump writes every retained span as one obs.TraceDump JSON document,
// the format cmd/traceview reads.
func (tr *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.t.DumpJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that its children cover. Children may overlap
// (parallel workers), so the covered part is the union of their
// intervals clipped to the parent's.
func selfTimes(recs []obs.SpanRecord) map[uint64]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[uint64][]iv)
	for _, r := range recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], iv{r.StartNS, r.StartNS + r.DurNS})
		}
	}
	self := make(map[uint64]int64, len(recs))
	for _, r := range recs {
		lo, hi := r.StartNS, r.StartNS+r.DurNS
		cs := kids[r.ID]
		slices.SortFunc(cs, func(a, b iv) int { return int(a.lo - b.lo) })
		covered, end := int64(0), lo
		for _, c := range cs {
			a, b := max(c.lo, end), min(c.hi, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		self[r.ID] = r.DurNS - covered
	}
	return self
}

// sampler collects named samples from concurrent workers.
type sampler struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSampler() *sampler { return &sampler{m: make(map[string][]float64)} }

func (s *sampler) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

// get returns the samples recorded under name.
func (s *sampler) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}
