package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/rng"
)

// passOutcome is what one pass of a pass-based workload (paper, sweep)
// did and produced.
type passOutcome struct {
	trials, ops       int
	attempted, failed int
	digest            string    // digest of every output of the pass
	problems          []string  // output checks the pass failed
	lat               []float64 // per-trial service times in ms, when a clock ran
}

// passEnv is how a pass runs: its trial parallelism (0 is the default,
// GOMAXPROCS), its input scale, and the instruments it reports to —
// clock times trials, tr and lay (both nil in untraced runs) record
// spans and per-layer figures.
type passEnv struct {
	workers int
	toy     bool
	clock   *trialClock
	tr      *tracer
	lay     *layerAcc
}

// passFunc runs one pass on seed.
type passFunc func(ctx context.Context, seed uint64, env passEnv) (passOutcome, error)

// passWorkload is a closed loop with one caller over a fixed list of pass
// seeds derived from the workload seed, one pass per seed.
type passWorkload struct {
	name     string
	passSecs float64 // nominal wall time of one pass; sizes the pass count
	opsName  string
	pass     passFunc
	nSetups  int
	// pins maps pass seeds to the digest their pass must produce.
	pins map[uint64]string
	// layers adds the workload's own per-layer figures from the traced
	// passes' spans and samples.
	layers func(recs []obs.SpanRecord, lay *layerAcc, vals map[string]float64)
}

// passSeed is the seed of timed pass i of a run on seed; setup passes use
// indices from setupBase on, outside every timed list.
func passSeed(seed uint64, i int) uint64 {
	s := seed*0x9e3779b97f4a7c15 + uint64(i)
	return rng.SplitMix64(&s) >> 16
}

const setupBase = 1 << 20

// passCount is the number of timed passes in a run of the given length.
func (w passWorkload) passCount(seconds float64) int {
	return max(3, int(math.Round(seconds/w.passSecs)))
}

// passLog is the per-pass record of a timed phase.
type passLog struct {
	outs      []passOutcome
	seeds     []uint64
	wall, cpu []time.Duration
	rss       []float64 // peak resident set per pass, MB
}

// totals returns the operations the passes attempted and failed, and
// prints the output checks that failed.
func (l *passLog) totals(logw io.Writer) (attempted, failed int) {
	for _, o := range l.outs {
		attempted += o.attempted
		failed += o.failed
		for _, p := range o.problems {
			fmt.Fprintf(logw, "check failed: %s\n", p)
		}
	}
	return attempted, failed
}

// runPasses runs one timed pass per seed.
func (w passWorkload) runPasses(ctx context.Context, seeds []uint64, env passEnv) (*passLog, error) {
	l := &passLog{seeds: seeds}
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	defer rss.close()
	for _, s := range seeds {
		runtime.GC() // every pass starts from a collected heap
		rss.take()
		var c0 counters
		if env.lay != nil {
			c0 = readCounters()
		}
		cpu0, t0 := cpuTime(), time.Now()
		out, err := w.pass(ctx, s, env)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		if err != nil {
			return l, fmt.Errorf("%s pass seed %d: %w", w.name, s, err)
		}
		l.rss = append(l.rss, rss.take())
		if env.lay != nil {
			env.lay.endPass(readCounters().delta(c0), out.trials)
		}
		if env.clock != nil {
			out.lat = env.clock.take()
		}
		l.outs = append(l.outs, out)
		l.wall = append(l.wall, wall)
		l.cpu = append(l.cpu, cpu)
	}
	return l, nil
}

// verify checks every pass digest it can: pinned pass seeds against
// their pins, and the first unpinned pass against a recomputation with
// one worker, which the determinism contract says must match. It
// returns the operations attempted and failed by the checks themselves,
// including the ops of mismatching passes.
func (w passWorkload) verify(ctx context.Context, l *passLog, toy bool, logw io.Writer) (attempted, failed int, err error) {
	pins := w.pins
	if toy {
		pins = nil // the pins are digests of full-scale passes
	}
	recheck := -1
	for i, out := range l.outs {
		pin, ok := pins[l.seeds[i]]
		if !ok {
			if recheck < 0 {
				recheck = i
			}
			continue
		}
		if pin != out.digest {
			fmt.Fprintf(logw, "check failed: %s pass seed %d digest %s, pinned %s\n", w.name, l.seeds[i], out.digest, pin)
			failed += out.ops
		}
	}
	if recheck < 0 {
		return 0, failed, nil
	}
	ref, err := w.pass(ctx, l.seeds[recheck], passEnv{workers: 1, toy: toy})
	if err != nil {
		return ref.attempted, failed + ref.attempted, fmt.Errorf("%s one-worker recheck: %w", w.name, err)
	}
	attempted, failed = ref.attempted, failed+ref.failed
	if ref.digest != l.outs[recheck].digest {
		fmt.Fprintf(logw, "check failed: %s pass seed %d digest %s, one-worker recomputation %s\n",
			w.name, l.seeds[recheck], l.outs[recheck].digest, ref.digest)
		failed += l.outs[recheck].ops
	}
	return attempted, failed, nil
}

// metrics are the end-to-end figures of a timed phase: CPU cost and peak
// resident set per pass (reported as medians over passes), trial
// service-time percentiles pooled over every pass, and the wall-clock
// throughputs trials_per_s and qps, which only the notes and the
// overhead lines print.
func (l *passLog) metrics() (map[string]float64, []string, error) {
	var tput, cpuTrial, qps, cpuOp []float64
	for i, out := range l.outs {
		if out.trials == 0 || out.ops == 0 {
			return nil, nil, fmt.Errorf("pass seed %d completed %d trials in %d operations", l.seeds[i], out.trials, out.ops)
		}
		wall, cpu := l.wall[i].Seconds(), l.cpu[i].Seconds()
		tput = append(tput, float64(out.trials)/wall)
		cpuTrial = append(cpuTrial, cpu*1e3/float64(out.trials))
		qps = append(qps, float64(out.ops)/wall)
		cpuOp = append(cpuOp, cpu*1e6/float64(out.ops))
	}
	m := map[string]float64{
		"trials_per_s":     median(tput),
		"cpu_ms_per_trial": median(cpuTrial),
		"qps":              median(qps),
		"cpu_us_per_query": median(cpuOp),
		"peak_rss_mb":      median(l.rss),
	}
	var lat []float64
	for _, out := range l.outs {
		lat = append(lat, out.lat...)
	}
	p50, ok50 := percentileOf(lat, 50)
	p99, ok99 := percentile(lat, 99)
	if !ok50 || !ok99 {
		return nil, nil, fmt.Errorf("only %d trial service times, too few for a p99 with %d beyond it", len(lat), minBeyond)
	}
	m["p50_ms"], m["p99_ms"] = p50, p99
	return m, []string{fmt.Sprintf("trial service time: %d samples", len(lat)),
		fmt.Sprintf("wall-clock throughput, median over passes (not gated): %.6g trials/s, %.6g operations/s",
			m["trials_per_s"], m["qps"])}, nil
}

// trialClock times the service of Monte-Carlo trials from the progress
// hook the engine calls on the worker goroutine after each completed
// trial. Between two completions on one goroutine that stayed on one OS
// thread, the thread's CPU clock advanced by the second trial's claim and
// execution: its service time, which unlike its wall time is not
// stretched by host steal. A worker's first trial, and a trial whose
// goroutine changed threads, are not timed.
type trialClock struct {
	mu   sync.Mutex
	last map[uint64]threadTime // goroutine id → thread and its CPU clock at the last completion
	lat  []float64             // ms
}

type threadTime struct {
	tid int
	cpu time.Duration
}

func newTrialClock() *trialClock {
	return &trialClock{last: make(map[uint64]threadTime)}
}

// tick records one trial completion on the calling goroutine.
func (c *trialClock) tick() {
	now := threadNow()
	id := goroutineID()
	c.mu.Lock()
	if prev, ok := c.last[id]; ok && prev.tid == now.tid {
		c.lat = append(c.lat, float64(now.cpu-prev.cpu)/1e6)
	}
	c.last[id] = now
	c.mu.Unlock()
}

// take returns the service times recorded since the last take and
// forgets the workers, so nothing between passes is timed as a trial.
func (c *trialClock) take() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	lat := c.lat
	c.lat = nil
	clear(c.last)
	return lat
}

// threadNow reads the calling OS thread's id and CPU clock
// (CLOCK_THREAD_CPUTIME_ID), pinned to the thread between the two reads.
func threadNow() threadTime {
	const clockThreadCPUTimeID = 3
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return threadTime{tid: syscall.Gettid(), cpu: time.Duration(ts.Nano())}
}

// goroutineID parses the calling goroutine's id from the header line
// runtime.Stack writes ("goroutine 123 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// layerAcc accumulates the traced run's per-layer figures: per-event
// samples reported as medians, and per-pass totals reported as medians
// over passes.
type layerAcc struct {
	*sampler
	mu       sync.Mutex
	passSum  map[string]float64
	counters []counters // per-pass counter deltas
	trials   []int
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sampler: newSampler(), passSum: make(map[string]float64)}
}

// sum adds v to the current pass's total of name.
func (a *layerAcc) sum(name string, v float64) {
	a.mu.Lock()
	a.passSum[name] += v
	a.mu.Unlock()
}

// endPass closes the current pass: its totals become one sample each.
func (a *layerAcc) endPass(d counters, trials int) {
	a.mu.Lock()
	sums := a.passSum
	a.passSum = make(map[string]float64)
	a.counters = append(a.counters, d)
	a.trials = append(a.trials, trials)
	a.mu.Unlock()
	for k, v := range sums {
		a.add(k, v)
	}
}

// counterTotal sums a counter's per-pass deltas.
func (a *layerAcc) counterTotal(name string) float64 {
	t := 0.0
	for _, d := range a.counters {
		t += d[name]
	}
	return t
}

// trialTotal sums the trials of every closed pass.
func (a *layerAcc) trialTotal() int {
	t := 0
	for _, n := range a.trials {
		t += n
	}
	return t
}

// timedSeeds is the pass seed list of a run.
func (w passWorkload) timedSeeds(o options, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = passSeed(o.seed, i)
	}
	return seeds
}

// warmUp runs one untimed pass on a seed outside the timed list, so lazy
// set-up and warm caches are not charged to the first timed pass; the
// set-ups measure that cost on their own.
func (w passWorkload) warmUp(ctx context.Context, o options) error {
	_, err := w.pass(ctx, passSeed(o.seed, setupBase+w.nSetups), passEnv{toy: o.toy})
	return err
}

func (w passWorkload) untraced(ctx context.Context, o options, logw io.Writer) (report, error) {
	if err := w.warmUp(ctx, o); err != nil {
		return report{}, err
	}
	calib0 := calibrate()
	clock := newTrialClock()
	m := startMeter()
	l, err := w.runPasses(ctx, w.timedSeeds(o, w.passCount(o.seconds)), passEnv{toy: o.toy, clock: clock})
	ph := m.stop()
	if err != nil {
		return report{}, err
	}
	calib1 := calibrate()
	vals, notes, err := l.metrics()
	if err != nil {
		return report{}, err
	}
	attempted, failed := l.totals(logw)
	ca, cf, err := w.verify(ctx, l, o.toy, logw)
	if err != nil {
		return report{}, err
	}
	notes = append(notes, fmt.Sprintf("%d timed passes, %d %s", len(l.outs), attempted, w.opsName))
	for i, out := range l.outs {
		p50, _ := percentileOf(out.lat, 50)
		p99, _ := percentile(out.lat, 99)
		notes = append(notes, fmt.Sprintf("pass seed %d: digest %s, %d trials, %d %s, wall %.3fs, cpu %.3fs, trial service p50 %.3fms p99 %.3fms, peak rss %.1fMB",
			l.seeds[i], out.digest, out.trials, out.ops, w.opsName, l.wall[i].Seconds(), l.cpu[i].Seconds(), p50, p99, l.rss[i]))
	}
	return report{vals: vals, attempted: attempted + ca, failed: failed + cf,
		host: newHostRecord(ph, (calib0+calib1)/2), notes: notes}, nil
}

// traced runs the same pass seeds untraced and then traced, reports the
// tracing overhead as the difference of their end-to-end figures,
// requires every traced pass to reproduce its untraced digest, and
// derives the per-layer metrics from the traced passes.
func (w passWorkload) traced(ctx context.Context, o options, logw io.Writer) (report, error) {
	seeds := w.timedSeeds(o, max(2, w.passCount(o.seconds)/2))
	if err := w.warmUp(ctx, o); err != nil {
		return report{}, err
	}
	calib0 := calibrate()
	mu := startMeter()
	lu, err := w.runPasses(ctx, seeds, passEnv{toy: o.toy, clock: newTrialClock()})
	ph := mu.stop() // the runtime and host figures describe the untraced passes
	if err != nil {
		return report{}, err
	}
	tr, lay := newTracer(), newLayerAcc()
	lt, err := w.runPasses(ctx, seeds, passEnv{toy: o.toy, clock: newTrialClock(), tr: tr, lay: lay})
	if err != nil {
		return report{}, err
	}
	calib1 := calibrate()
	eu, _, err := lu.metrics()
	if err != nil {
		return report{}, err
	}
	et, _, err := lt.metrics()
	if err != nil {
		return report{}, err
	}
	printOverhead(logw, eu, et)

	attempted, failed := lt.totals(logw)
	au, fu := lu.totals(logw)
	attempted, failed = attempted+au, failed+fu
	for i := range seeds {
		if lt.outs[i].digest != lu.outs[i].digest {
			fmt.Fprintf(logw, "check failed: traced pass seed %d digest %s, untraced %s\n",
				seeds[i], lt.outs[i].digest, lu.outs[i].digest)
			failed += lt.outs[i].ops
		}
	}
	recs, err := tr.records()
	if err != nil {
		return report{}, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
	if err := tr.dump(path); err != nil {
		return report{}, err
	}
	vals := zeroLayers()
	counterLayers(lay, vals)
	w.layers(recs, lay, vals)
	calib := (calib0 + calib1) / 2
	runtimeLayers(ph, calib, float64(lay.trialTotal()), vals)
	return report{vals: vals, attempted: attempted, failed: failed, host: newHostRecord(ph, calib),
		notes: []string{fmt.Sprintf("span dump: %s (%d spans; read with go run ./cmd/traceview %s)", path, len(recs), path)}}, nil
}

func (w passWorkload) setups() int { return w.nSetups }

func (w passWorkload) setup(ctx context.Context, o options, j int) (setupReport, error) {
	t0 := time.Now()
	out, err := w.pass(ctx, passSeed(o.seed, setupBase+j), passEnv{toy: o.toy})
	secs := time.Since(t0).Seconds()
	if err != nil {
		return setupReport{}, err
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	return setupReport{Seconds: secs, Attempted: out.attempted, Failed: out.failed}, nil
}

// printOverhead prints the untraced and traced end-to-end figures of one
// invocation side by side; their difference is the tracing overhead.
func printOverhead(w io.Writer, untraced, traced map[string]float64) {
	for _, k := range sortedKeys(untraced) {
		u, t := untraced[k], traced[k]
		fmt.Fprintf(w, "overhead: %-18s untraced %12.6g  traced %12.6g  traced-untraced %+.6g (%+.1f%%)\n",
			k, u, t, t-u, 100*(t-u)/u)
	}
}

// zeroLayers returns every per-layer metric at 0, the value of a layer
// the workload does not call into.
func zeroLayers() map[string]float64 {
	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.Name] = 0
	}
	return vals
}

// counterLayers turns the traced passes' engine-counter deltas into the
// per-layer counts: trials per route and kernel races per pass (median
// over passes), index rebuilds per trial, free-list hit ratio.
func counterLayers(lay *layerAcc, vals map[string]float64) {
	perPass := func(name string) float64 {
		var xs []float64
		for _, d := range lay.counters {
			xs = append(xs, d[name])
		}
		return median(xs)
	}
	for _, k := range []string{"sim.route.runner", "sim.route.resample", "sim.route.scenario", "sim.route.rebuild",
		"temporal.diameter_race.linear", "temporal.diameter_race.frontier",
		"temporal.relabel_edges.patch", "temporal.relabel_edges.rebuild",
		"qindex.hits", "qindex.misses", "qindex.coalesced"} {
		vals[k] = perPass(k)
	}
	if t := float64(lay.trialTotal()); t > 0 {
		for _, k := range []string{"temporal.index_builds.labelsort", "temporal.index_builds.timeedges", "temporal.index_builds.vertex"} {
			vals[k] = lay.counterTotal(k) / t
		}
	}
	if h, m := lay.counterTotal("sim.freelist.hits"), lay.counterTotal("sim.freelist.misses"); h+m > 0 {
		vals["sim.freelist_hit_ratio"] = h / (h + m)
	}
}

// runtimeLayers fills the runtime and host figures of a traced phase;
// ops is the phase's trial or query count.
func runtimeLayers(ph phase, calibMS, ops float64, vals map[string]float64) {
	vals["runtime.gc_cpu_frac"] = ph.gcCPUFrac
	if ops > 0 {
		vals["runtime.alloc_kb_per_op"] = ph.allocBytes / 1024 / ops
	}
	vals["sim.busy_frac"] = ph.busyFrac()
	vals["host.steal_frac"] = ph.stealFrac
	vals["host.calib_ms"] = calibMS
}

// spanAttr returns the value of a span's attribute, "" when absent.
func spanAttr(r obs.SpanRecord, key string) string {
	for _, a := range r.Attrs[:r.NAttrs] {
		if a.Key == key {
			return a.Value()
		}
	}
	return ""
}
