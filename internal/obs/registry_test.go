package obs

import (
	"strings"
	"testing"
)

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.")
	b := r.Counter("x_total", "X.")
	if a != b {
		t.Fatal("re-registering the same counter must return the same instrument")
	}
	v1 := r.CounterVec("y_total", "Y.", "k")
	v2 := r.CounterVec("y_total", "Y.", "k")
	if v1.With("a") != v2.With("a") {
		t.Fatal("vec series must be shared across re-registrations")
	}
	if v1.With("a") == v1.With("b") {
		t.Fatal("distinct label values must get distinct instruments")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "M.")
	mustPanic(t, "kind mismatch", func() { r.Gauge("m_total", "M.") })
	r.CounterVec("l_total", "L.", "a")
	mustPanic(t, "label mismatch", func() { r.CounterVec("l_total", "L.", "b") })
	mustPanic(t, "invalid name", func() { r.Counter("bad name", "") })
	mustPanic(t, "reserved label", func() { r.HistogramVec("h_ns", "H.", "le") })
	mustPanic(t, "arity mismatch", func() { r.CounterVec("l_total", "L.", "a").With("x", "y") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestGaugeFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("depth", "D.", func() float64 { return 1 })
	r.GaugeFunc("depth", "D.", func() float64 { return 2 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "depth 2\n") {
		t.Fatalf("latest GaugeFunc must win:\n%s", b.String())
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "a_b", "A9", "_x", "ns:sub"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "9a", "a-b", "a b", "a\"b"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
}

func TestDefaultRegistryConstructors(t *testing.T) {
	// The default registry is process-global; use names no production
	// metric claims.
	c := NewCounter("obs_test_default_total", "test")
	c.Inc()
	if NewCounter("obs_test_default_total", "test") != c {
		t.Fatal("default-registry counter not shared")
	}
	NewGauge("obs_test_default_gauge", "test").Add(1)
	NewHistogram("obs_test_default_ns", "test").Observe(1)
	NewCounterVec("obs_test_default_vec_total", "test", "k").With("v").Inc()
	NewHistogramVec("obs_test_default_hvec_ns", "test", "k").With("v").Observe(2)
	var b strings.Builder
	if err := Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"obs_test_default_total 1",
		`obs_test_default_vec_total{k="v"} 1`,
		`obs_test_default_hvec_ns_count{k="v"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("default exposition missing %q", want)
		}
	}
}
