package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fromSlice returns a set of capacity n holding exactly elems.
func fromSlice(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if got := s.Count(); got != 0 {
		t.Fatalf("Count() = %d, want 0", got)
	}
	if s.n != 100 || len(s.words) != 2 {
		t.Fatalf("capacity %d in %d words, want 100 in 2", s.n, len(s.words))
	}
}

func TestNewZeroCap(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.String() != "{}" {
		t.Fatal("zero-capacity set should be empty")
	}
	if s.Next(0) != -1 {
		t.Fatal("Next on empty zero-cap set should be -1")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestAddContainsRemove(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("Contains(%d) before Add", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("!Contains(%d) after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
	// Removing an absent element is a no-op.
	s.Remove(64)
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() after double Remove = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(s *Set)
	}{
		{"Add-high", func(s *Set) { s.Add(10) }},
		{"Add-neg", func(s *Set) { s.Add(-1) }},
		{"Contains-high", func(s *Set) { s.Contains(10) }},
		{"Remove-high", func(s *Set) { s.Remove(10) }},
		{"TestAndAdd-high", func(s *Set) { s.TestAndAdd(10) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", tc.name)
				}
			}()
			tc.fn(New(10))
		})
	}
}

func TestTestAndAdd(t *testing.T) {
	s := New(10)
	if s.TestAndAdd(3) {
		t.Fatal("TestAndAdd on absent element returned true")
	}
	if !s.TestAndAdd(3) {
		t.Fatal("TestAndAdd on present element returned false")
	}
	if !s.Contains(3) {
		t.Fatal("element missing after TestAndAdd")
	}
}

func TestSetOps(t *testing.T) {
	a := fromSlice(20, []int{1, 3, 5, 7, 19})
	b := fromSlice(20, []int{3, 4, 5, 6})

	u := a.Clone()
	u.Union(b)
	if got, want := u.String(), "{1 3 4 5 6 7 19}"; got != want {
		t.Fatalf("Union = %s, want %s", got, want)
	}

	i := a.Clone()
	i.Intersect(b)
	if got, want := i.String(), "{3 5}"; got != want {
		t.Fatalf("Intersect = %s, want %s", got, want)
	}

	d := a.Clone()
	d.Subtract(b)
	if got, want := d.String(), "{1 7 19}"; got != want {
		t.Fatalf("Subtract = %s, want %s", got, want)
	}

	// a and b must be unchanged by Clone-based ops.
	if got, want := a.String(), "{1 3 5 7 19}"; got != want {
		t.Fatalf("a mutated: %s, want %s", got, want)
	}
}

func TestSetOpsCapacityMismatchPanics(t *testing.T) {
	ops := []struct {
		name string
		fn   func(a, b *Set)
	}{
		{"Union", func(a, b *Set) { a.Union(b) }},
		{"Intersect", func(a, b *Set) { a.Intersect(b) }},
		{"Subtract", func(a, b *Set) { a.Subtract(b) }},
		{"CopyFrom", func(a, b *Set) { a.CopyFrom(b) }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched capacity should panic", op.name)
				}
			}()
			op.fn(New(10), New(20))
		})
	}
}

func TestEqual(t *testing.T) {
	a := fromSlice(10, []int{1, 2})
	b := fromSlice(10, []int{1, 2})
	c := fromSlice(10, []int{1, 3})
	d := fromSlice(11, []int{1, 2})
	if !a.Equal(b) {
		t.Fatal("a should equal b")
	}
	if a.Equal(c) {
		t.Fatal("a should not equal c")
	}
	if a.Equal(d) {
		t.Fatal("sets of different capacity should not be equal")
	}
}

func TestNextIteration(t *testing.T) {
	elems := []int{0, 5, 63, 64, 99}
	s := fromSlice(100, elems)
	var got []int
	for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
		got = append(got, v)
	}
	if len(got) != len(elems) {
		t.Fatalf("iterated %v, want %v", got, elems)
	}
	for i := range elems {
		if got[i] != elems[i] {
			t.Fatalf("iterated %v, want %v", got, elems)
		}
	}
	if s.Next(100) != -1 {
		t.Fatal("Next past capacity should be -1")
	}
	if s.Next(-5) != 0 {
		t.Fatal("Next with negative start should clamp to 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := fromSlice(10, []int{1})
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Fatal("mutating clone affected original")
	}
}

func TestCopyFrom(t *testing.T) {
	a := fromSlice(10, []int{1, 2, 3})
	b := New(10)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom did not copy")
	}
}

func TestForEachOrder(t *testing.T) {
	s := fromSlice(300, []int{299, 0, 128, 64, 65})
	prev := -1
	s.ForEach(func(i int) {
		if i <= prev {
			t.Fatalf("ForEach out of order: %d after %d", i, prev)
		}
		prev = i
	})
}

func TestStringEmpty(t *testing.T) {
	if got := New(5).String(); got != "{}" {
		t.Fatalf("String() = %q, want {}", got)
	}
}

// Property: a Set agrees with a map[int]bool reference model under a random
// operation sequence.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const n = 257
		r := rand.New(rand.NewSource(seed))
		s := New(n)
		m := make(map[int]bool)
		for _, op := range ops {
			e := int(op) % n
			switch r.Intn(3) {
			case 0:
				s.Add(e)
				m[e] = true
			case 1:
				s.Remove(e)
				delete(m, e)
			case 2:
				if s.Contains(e) != m[e] {
					return false
				}
			}
		}
		if s.Count() != len(m) {
			return false
		}
		for e := range m {
			if !s.Contains(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ForEach hands back exactly the distinct elements added.
func TestQuickSliceRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1024
		seen := make(map[int]bool)
		var elems []int
		for _, e := range raw {
			v := int(e) % n
			if !seen[v] {
				seen[v] = true
				elems = append(elems, v)
			}
		}
		var got []int
		fromSlice(n, elems).ForEach(func(i int) { got = append(got, i) })
		if len(got) != len(seen) {
			return false
		}
		for _, v := range got {
			if !seen[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish identity |A∪B| + |A∩B| = |A| + |B|.
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(as, bs []uint16) bool {
		const n = 512
		a, b := New(n), New(n)
		for _, e := range as {
			a.Add(int(e) % n)
		}
		for _, e := range bs {
			b.Add(int(e) % n)
		}
		u := a.Clone()
		u.Union(b)
		i := a.Clone()
		i.Intersect(b)
		return u.Count()+i.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(i & ((1 << 16) - 1))
	}
}

func BenchmarkNextIterate(b *testing.B) {
	s := New(1 << 16)
	for i := 0; i < 1<<16; i += 7 {
		s.Add(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt := 0
		for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
			cnt++
		}
		if cnt == 0 {
			b.Fatal("no elements")
		}
	}
}
