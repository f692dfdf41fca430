package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// userHZ is the tick rate of /proc/stat counters on Linux.
const userHZ = 100

// parseStealTicks returns the steal field of the aggregate "cpu" line of
// a /proc/stat document, in ticks of 1/userHZ s.
func parseStealTicks(r io.Reader) (uint64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		// cpu user nice system idle iowait irq softirq steal …
		if len(f) < 9 {
			return 0, fmt.Errorf("/proc/stat: cpu line has %d fields, want ≥ 9", len(f))
		}
		return strconv.ParseUint(f[8], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// parseVmHWM returns the VmHWM (peak resident set) field of a
// /proc/<pid>/status document, in bytes.
func parseVmHWM(r io.Reader) (uint64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		return kb << 10, err
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

func readFileWith[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// parseStatmResident returns the resident field (in pages) of a
// /proc/<pid>/statm document.
func parseStatmResident(b []byte) (int64, error) {
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %d fields, want ≥ 2", len(f))
	}
	return strconv.ParseInt(f[1], 10, 64)
}

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

// rssSampler tracks the largest resident set of this process, sampled
// every rssEvery from /proc/self/statm, between takes.
type rssSampler struct {
	f    *os.File
	page int64
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{f: f, page: int64(os.Getpagesize()), stop: make(chan struct{}), done: make(chan struct{})}
	if err := s.sample(); err != nil {
		f.Close()
		return nil, err
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) sample() error {
	var buf [256]byte
	n, err := s.f.ReadAt(buf[:], 0)
	if n == 0 {
		return fmt.Errorf("statm: %w", err)
	}
	pages, err := parseStatmResident(buf[:n])
	if err != nil {
		return err
	}
	for b := pages * s.page; ; {
		p := s.peak.Load()
		if b <= p || s.peak.CompareAndSwap(p, b) {
			return nil
		}
	}
}

// take returns the peak resident set since the previous take in MB
// (2^20 bytes) and starts the next interval from the current one.
func (s *rssSampler) take() float64 {
	s.sample()
	p := s.peak.Swap(0)
	s.sample()
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
	s.f.Close()
}

// stealTicks reads the host's cumulative steal time.
func stealTicks() (uint64, error) { return readFileWith("/proc/stat", parseStealTicks) }

// peakRSSMB reads this process's peak resident set in MB (2^20 bytes).
func peakRSSMB() (float64, error) {
	b, err := readFileWith("/proc/self/status", parseVmHWM)
	return float64(b) / (1 << 20), err
}

// cpuTime returns the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed integer loop and returns the fastest of three
// repetitions in ms — the host's speed for work that does not depend on
// the program at all.
func calibrate() float64 {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		best = min(best, time.Since(t0))
	}
	return float64(best) / 1e6
}

// runtimeSample is a snapshot of the runtime/metrics the benchmark
// reports: GC CPU, total CPU and cumulative heap allocation.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

var runtimeKeys = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), allocBytes: val(s[2].Value)}
}

// meter measures one phase of a run: wall, process CPU, host steal and
// runtime counters between start and stop.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	st0   uint64
	stErr error
	rt0   runtimeSample
}

func startMeter() *meter {
	runtime.GC() // a phase starts from a collected heap, not the previous phase's garbage
	m := &meter{rt0: readRuntime()}
	m.st0, m.stErr = stealTicks()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	return m
}

// phase is a finished meter reading.
type phase struct {
	wall, cpu  time.Duration
	stealFrac  float64 // host steal ÷ (wall × nproc); 0 when unreadable
	gcCPUFrac  float64 // GC share of runtime CPU
	allocBytes float64
}

func (m *meter) stop() phase {
	wall := time.Since(m.t0)
	p := phase{wall: wall, cpu: cpuTime() - m.cpu0}
	if st1, err := stealTicks(); err == nil && m.stErr == nil && wall > 0 {
		p.stealFrac = float64(st1-m.st0) / userHZ / (wall.Seconds() * float64(runtime.NumCPU()))
	}
	rt := readRuntime()
	if d := rt.totalCPU - m.rt0.totalCPU; d > 0 {
		p.gcCPUFrac = (rt.gcCPU - m.rt0.gcCPU) / d
	}
	p.allocBytes = rt.allocBytes - m.rt0.allocBytes
	return p
}

// busyFrac is CPU ÷ (wall × GOMAXPROCS): how much of the processors the
// program kept busy.
func (p phase) busyFrac() float64 {
	if p.wall <= 0 {
		return 0
	}
	return p.cpu.Seconds() / (p.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// hostRecord is stored beside every run's metrics so a slow host can be
// told apart from a slow program without rerunning.
type hostRecord struct {
	StealFrac  float64 `json:"host.steal_frac"`
	CalibMS    float64 `json:"host.calib_ms"`
	BusyFrac   float64 `json:"sim.busy_frac"`
	VmHWMMB    float64 `json:"vm_hwm_mb"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func newHostRecord(p phase, calibMS float64) hostRecord {
	hwm, _ := peakRSSMB()
	return hostRecord{
		StealFrac: p.stealFrac, CalibMS: calibMS, BusyFrac: p.busyFrac(), VmHWMMB: hwm,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
}

// commit identifies the measured program: the VCS revision the Go
// toolchain stamped into the binary when built inside a git checkout,
// otherwise a digest of the Go sources and go.mod files under the
// module root (the parent of the working directory's perfbench/).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	slices.Sort(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:12])
}
