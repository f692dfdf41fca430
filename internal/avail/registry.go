package avail

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Knob documents one numeric parameter of a registered model.
type Knob struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
	Doc     string  `json:"doc"`
}

// Builder is one registry entry: metadata plus the constructor. The
// metadata half is JSON-serializable and is what the experiment service
// returns from GET /models.
type Builder struct {
	// Name is the registry key, matched case-insensitively.
	Name string `json:"name"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
	// Scenario reports that the model implements Scenario and builds its
	// own support graph.
	Scenario bool `json:"scenario"`
	// Knobs lists the model-specific parameters Params.P accepts.
	Knobs []Knob `json:"knobs,omitempty"`
	// New constructs the model; it must reject out-of-range parameters
	// with an error rather than panic.
	New func(p Params) (Model, error) `json:"-"`
}

var registry = map[string]Builder{}

// Register adds a builder to the registry; it panics on empty or duplicate
// names, which are programming errors caught at init.
func Register(b Builder) {
	key := canonical(b.Name)
	if key == "" {
		panic("avail: register with empty name")
	}
	if b.New == nil {
		panic("avail: register " + key + " with nil constructor")
	}
	if _, dup := registry[key]; dup {
		panic("avail: duplicate model " + key)
	}
	registry[key] = b
}

func canonical(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Lookup returns the builder registered under name (case-insensitive).
func Lookup(name string) (Builder, bool) {
	b, ok := registry[canonical(name)]
	return b, ok
}

// Names returns every registered model name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Builders returns every registry entry sorted by name.
func Builders() []Builder {
	out := make([]Builder, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// ParseKnobs parses the CLI knob syntax "name=value[,name=value…]" into a
// Params.P map; empty input yields nil. Values must be finite: no knob
// takes NaN or ±Inf. Name validity is checked later by Build against the
// chosen model's declared knobs.
func ParseKnobs(s string) (map[string]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(kv, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("avail: bad knob %q, want name=value", kv)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("avail: knob %q: %v", name, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("avail: knob %q: value %v is not finite", name, v)
		}
		out[name] = v
	}
	return out, nil
}

// Build constructs the named model. Unknown model names and unknown knob
// names are errors — a typo in an HTTP request or CLI flag must fail loudly
// rather than silently fall back to a default.
func Build(name string, p Params) (Model, error) {
	b, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("avail: unknown model %q (have %s)", name, strings.Join(Names(), ", "))
	}
	if err := ValidateKnobs(name, p.P); err != nil {
		return nil, err
	}
	m, err := b.New(p)
	if err != nil {
		return nil, fmt.Errorf("avail: building %q: %w", b.Name, err)
	}
	return m, nil
}

// ValidateKnobs rejects knob names the named model does not declare. With
// an empty model name it checks against the union of every registered
// model's knobs — the loosest check that still catches typos when knob
// overrides target a driver's default models rather than one named model.
func ValidateKnobs(model string, knobs map[string]float64) error {
	if len(knobs) == 0 {
		return nil
	}
	valid := map[string]bool{}
	if model != "" {
		b, ok := Lookup(model)
		if !ok {
			return fmt.Errorf("avail: unknown model %q (have %s)", model, strings.Join(Names(), ", "))
		}
		for _, k := range b.Knobs {
			valid[k.Name] = true
		}
	} else {
		for _, b := range Builders() {
			for _, k := range b.Knobs {
				valid[k.Name] = true
			}
		}
	}
	for name := range knobs {
		if !valid[name] {
			if model != "" {
				return fmt.Errorf("avail: model %q has no parameter %q", canonical(model), name)
			}
			return fmt.Errorf("avail: no registered model has a parameter %q", name)
		}
	}
	return nil
}
