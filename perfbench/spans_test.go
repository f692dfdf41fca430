package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	// Parent [0,100); children [10,30) and [20,50) overlap (two workers),
	// [90,120) runs past the parent's end, and a grandchild inside the
	// first child counts against the child only.
	recs := []obs.SpanRecord{
		{ID: 1, StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, DurNS: 20},
		{ID: 3, Parent: 1, StartNS: 20, DurNS: 30},
		{ID: 4, Parent: 1, StartNS: 90, DurNS: 30},
		{ID: 5, Parent: 2, StartNS: 12, DurNS: 5},
	}
	self := selfTimes(recs)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 15, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeOfRecordedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.root("pass")
	child := root.Child("run")
	child.End()
	root.End()
	recs, err := tr.records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d spans recorded, want 2", len(recs))
	}
	self := selfTimes(recs)
	for _, r := range recs {
		if r.Name == "pass" {
			if got, want := self[r.ID], r.DurNS-recs[0].DurNS; got != want {
				t.Errorf("root self time %d, want %d", got, want)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "dump.json")
	if err := tr.dump(path); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("dump not written: %v", err)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.root("x")
	c := s.Child("y")
	c.End()
	s.End()
}
