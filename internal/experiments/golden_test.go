package experiments

// Byte-level golden pins for every quick driver: the rendered output at
// seed 1 must match testdata/golden/<id>.txt exactly, serially and with
// the default worker count. Each driver runs through Run, the path
// cmd/experiments, the service and perfbench take, so its context and
// progress plumbing is pinned too. The determinism tests compare runs of the
// current code against each other; these compare against output
// committed earlier, so a kernel rewrite that shifts any number — or the
// stream position a later trial starts from — fails here instead of only
// in the end-to-end benchmark's digests. Regenerate after an intended
// output change with: go test ./internal/experiments -run TestGoldenQuick -update

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current drivers")

func TestGoldenQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every driver")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			run := func(workers int) string {
				res, _, err := Run(context.Background(), e, Config{Seed: 1, Quick: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return renderAll(res)
			}
			got := run(1)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("%s: Workers=1 output differs from %s", e.ID, path)
			}
			if got := run(0); got != string(want) {
				t.Fatalf("%s: Workers=0 output differs from %s", e.ID, path)
			}
		})
	}
}
