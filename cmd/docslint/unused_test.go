package main

import (
	"strings"
	"testing"
)

// TestCheckUnused runs the pass on a made-up module: callers in cmd/
// count, tests and a function's own body do not, interface methods and
// exported methods of unexported types are exempt, and the keep-list
// both excuses entries and fails when an entry is gone or has a caller.
func TestCheckUnused(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "go.mod", "module fake\n\ngo 1.24\n")
	write(t, dir, "internal/a/doc.go", "// Package a.\npackage a\n")
	write(t, dir, "internal/a/a.go", `package a

import "fmt"

func Used() {}

func Unused() {}

func Kept() {}

func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func Generic[T any](x T) T { return x }

type T struct{}

func (T) String() string { return fmt.Sprint("t") }

func (*T) Method() {}

type Sampler struct{}

func (Sampler) SampleInto([]int) {}

func Fill(x any, out []int) {
	if s, ok := x.(interface{ SampleInto([]int) }); ok {
		s.SampleInto(out)
	}
}

type hidden struct{}

func (hidden) Exported() {}

func helper() { hidden{}.Exported() }
`)
	write(t, dir, "internal/a/a_test.go", "package a\n\nimport \"testing\"\n\nfunc TestUnused(t *testing.T) { Unused(); new(T).Method() }\n")
	write(t, dir, "cmd/x/main.go", `package main

import (
	"fmt"

	"fake/internal/a"
)

func main() {
	a.Used()
	fmt.Println(a.T{}, a.Generic(1))
	a.Fill(a.Sampler{}, nil)
}
`)
	keepList := map[string]string{
		"a.Kept": "oracle: kept on purpose",
		"a.Used": "test fixture: stale entry",
		"a.Gone": "oracle: deleted since",
	}
	problems, err := checkUnused(dir, keepList)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go:11: a.Recursive is exported but has no non-test caller",
		"internal/a/a.go:24: a.T.Method is exported but has no non-test caller",
		"internal/a/a.go:5: a.Used is kept (test fixture: stale entry) but cmd/x/main.go:10 calls it",
		"internal/a/a.go:7: a.Unused is exported but has no non-test caller",
		"keep-list names a.Gone, which is not an exported function or method the pass checks",
	}
	if len(problems) != len(want) {
		t.Fatalf("got %d problems, want %d:\n%s", len(problems), len(want), strings.Join(problems, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to contain %q", i, problems[i], w)
		}
	}
}
