package graph

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestFamilyBuildsEveryName(t *testing.T) {
	r := rng.New(5)
	for _, name := range FamilyNames() {
		g, err := Family(name, 16, FamilyOpts{}, r)
		if err != nil {
			t.Fatalf("Family(%q): %v", name, err)
		}
		if g.N() < 1 {
			t.Fatalf("Family(%q): empty graph", name)
		}
		directed := name == "dclique"
		if g.Directed() != directed {
			t.Fatalf("Family(%q): directed=%v", name, g.Directed())
		}
	}
	if _, err := Family("nope", 8, FamilyOpts{}, r); err == nil {
		t.Fatal("unknown family must error")
	}
}

func TestFamilyOptsApply(t *testing.T) {
	r := rng.New(7)
	dense, err := Family("gnp", 24, FamilyOpts{P: 0.9}, r)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Family("gnp", 24, FamilyOpts{P: 0.01}, r)
	if err != nil {
		t.Fatal(err)
	}
	if dense.M() <= sparse.M() {
		t.Fatalf("P not applied: dense m=%d sparse m=%d", dense.M(), sparse.M())
	}
	reg, err := Family("regular", 12, FamilyOpts{Deg: 6}, r)
	if err != nil {
		t.Fatal(err)
	}
	if reg.M() != 12*6/2 {
		t.Fatalf("Deg not applied: m=%d", reg.M())
	}
}

// TestFamilyRejectsWhatGeneratorsWould checks that every size or option a
// generator panics on comes back as CheckFamily's error from Family, and
// that the smallest accepted size of each such family builds.
func TestFamilyRejectsWhatGeneratorsWould(t *testing.T) {
	r := rng.New(9)
	for _, tc := range []struct {
		name string
		n    int
		o    FamilyOpts
		want string
	}{
		{"clique", 0, FamilyOpts{}, "clique needs n >= 1"},
		{"star", -1, FamilyOpts{}, "star needs n >= 1"},
		{"grid", 0, FamilyOpts{}, "grid needs n >= 1"},
		{"tree", 0, FamilyOpts{}, "tree needs n >= 1"},
		{"cycle", 2, FamilyOpts{}, "cycle needs n >= 3"},
		{"hypercube", 0, FamilyOpts{}, "hypercube needs n >= 1"},
		{"hypercube", 1 << 31, FamilyOpts{}, "hypercube needs n < 2^31"},
		{"gnp", 8, FamilyOpts{P: 2}, "gnp needs p in [0,1]"},
		{"gnp", 8, FamilyOpts{P: -0.5}, "gnp needs p in [0,1]"},
		{"gnp", 8, FamilyOpts{P: math.NaN()}, "gnp needs p in [0,1]"},
		{"regular", 4, FamilyOpts{}, "regular needs 0 <= deg < n"},
		{"regular", 8, FamilyOpts{Deg: -1}, "regular needs 0 <= deg < n"},
		{"regular", 5, FamilyOpts{Deg: 3}, "regular needs n*deg even"},
		{"mobius", 8, FamilyOpts{}, `unknown family "mobius"`},
	} {
		g, err := Family(tc.name, tc.n, tc.o, r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Family(%q, %d, %+v) = %v, %v; want error %q", tc.name, tc.n, tc.o, g, err, tc.want)
		}
		if cerr := CheckFamily(tc.name, tc.n, tc.o); fmt.Sprint(cerr) != fmt.Sprint(err) {
			t.Errorf("CheckFamily(%q, %d) = %v, Family returned %v", tc.name, tc.n, cerr, err)
		}
	}
	for _, tc := range []struct {
		name string
		n    int
		o    FamilyOpts
	}{
		{"cycle", 3, FamilyOpts{}}, {"hypercube", 1, FamilyOpts{}}, {"regular", 5, FamilyOpts{}},
		{"regular", 6, FamilyOpts{Deg: 3}}, {"gnp", 8, FamilyOpts{P: 1}}, {"star", 1, FamilyOpts{}},
	} {
		if _, err := Family(tc.name, tc.n, tc.o, r); err != nil {
			t.Errorf("Family(%q, %d, %+v): %v", tc.name, tc.n, tc.o, err)
		}
	}
}
