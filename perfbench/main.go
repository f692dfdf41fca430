// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads through the entry points users call, checks every
// output, and prints the metrics as one JSON line:
//
//	paper  all 18 experiment drivers at quick scale (experiments.Run)
//	sweep  cmd/sweep threshold searches and a POST /sweeps-style grid
//	query  GET /query against the service handler over loopback
//
// Usage (from the repository root; see README.md):
//
//	bash perfbench/run.sh --workload paper --seed 3 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload sweep --seed 3 --seconds 20 --trace 1
//	bash perfbench/run.sh --workload query --seed 3 --seconds 20 --repeat 5 --sets 2
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 the per-layer metrics of a traced run, whose span dump is
// written under -out for cmd/traceview. --repeat k runs the workload k
// times in child processes and prints each metric's median, quartiles
// and spread, and with --sets 2 the comparison of two such sets.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultSeed is the workload seed whose pass digests are pinned.
const defaultSeed = 1

type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	out        string
	repeat     int
	sets       int
	setupChild int // ≥ 0: run only set-up number setupChild and report it
	toy        bool
}

// workload is one of the benchmark's traffic mixes.
type workload interface {
	// untraced measures the end-to-end metrics except setup_s.
	untraced(ctx context.Context, o options, logw io.Writer) (report, error)
	// traced measures the per-layer metrics, printing its own end-to-end
	// figures beside untraced ones to logw.
	traced(ctx context.Context, o options, logw io.Writer) (report, error)
	// setup performs set-up number j as a fresh process would.
	setup(ctx context.Context, o options, j int) (setupReport, error)
	// setups is how many set-ups a run performs; setup_s is their median.
	setups() int
}

// report is a measured run.
type report struct {
	vals              map[string]float64
	attempted, failed int
	host              hostRecord
	notes             []string
}

// setupReport is one set-up measured in a child process.
type setupReport struct {
	Seconds   float64 `json:"setup_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
}

var workloads = map[string]workload{
	"paper": paperWorkload,
	"sweep": sweepWorkload,
	"query": queryWorkload,
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "paper", "workload: paper, sweep or query")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; every input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "nominal run length in seconds; sizes the fixed work of a run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for trace dumps")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload this many times (seeds seed, seed+1, …) and summarize")
	fs.IntVar(&o.sets, "sets", 1, "with -repeat: number of sets of runs to compare (1 or 2)")
	fs.IntVar(&o.setupChild, "setup-child", -1, "internal: perform one set-up and report it")
	fs.BoolVar(&o.toy, "toy", false, "internal: tiny inputs, for the self-tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	w, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want paper, sweep or query)\n", o.workload)
		return 2
	case *trace != 0 && *trace != 1, o.seconds <= 0, o.sets < 1 || o.sets > 2:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1, -seconds positive, -sets 1 or 2")
		return 2
	}
	if o.repeat > 0 {
		return repeatMode(ctx, o, stdout, stderr)
	}
	if o.setupChild >= 0 {
		sr, err := w.setup(ctx, o, o.setupChild)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		if err := writeLine(stdout, sr); err != nil {
			return 1
		}
		return 0
	}
	res, err := measure(ctx, w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := writeLine(stdout, res); err != nil {
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their checks\n", o.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// measure runs w once and builds the result line, printing the host
// record and notes before it.
func measure(ctx context.Context, w workload, o options, stdout io.Writer) (result, error) {
	var rep report
	var err error
	defs := endToEnd
	if o.trace {
		defs = perLayer
		rep, err = w.traced(ctx, o, stdout)
	} else {
		rep, err = w.untraced(ctx, o, stdout)
		if err == nil {
			var sa, sf int
			rep.vals["setup_s"], sa, sf, err = runSetups(ctx, w, o)
			rep.attempted += sa
			rep.failed += sf
		}
	}
	if err != nil {
		return result{}, err
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "note: %s\n", n)
	}
	if err := writeLine(stdout, map[string]any{"host": rep.host}); err != nil {
		return result{}, err
	}
	return newResult(defs, rep.vals, rep.attempted, rep.failed)
}

// runSetups performs the set-ups, each in a fresh child process so every
// one is cold, and returns their median time.
func runSetups(ctx context.Context, w workload, o options) (secs float64, attempted, failed int, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, 0, err
	}
	var times []float64
	for j := 0; j < w.setups(); j++ {
		args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
			"-out", o.out, "-setup-child", strconv.Itoa(j)}
		if o.toy {
			args = append(args, "-toy")
		}
		var sr setupReport
		if _, err := runChild(ctx, exe, args, &sr); err != nil {
			return 0, attempted, failed, fmt.Errorf("set-up %d: %w", j, err)
		}
		times = append(times, sr.Seconds)
		attempted += sr.Attempted
		failed += sr.Failed
	}
	return median(times), attempted, failed, nil
}

// runChild runs exe with args, waits for it, decodes the last line of
// its standard output into v and returns the lines before it. The
// child's standard error passes through.
func runChild(ctx context.Context, exe string, args []string, v any) ([]string, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", filepath.Base(exe), strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return lines[:len(lines)-1], nil
}
