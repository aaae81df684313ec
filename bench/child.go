package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repResult is what one child process — one repetition of one workload —
// reports to the driver on its standard output.
type repResult struct {
	Workload  string             `json:"workload"`
	StartedNS int64              `json:"started_ns"` // unix time of the first measured op
	Attempted int                `json:"ops_attempted"`
	OK        int                `json:"ops_ok"`
	Failed    int                `json:"ops_failed"`
	Metrics   map[string]float64 `json:"metrics"`          // end-to-end, this repetition; the parent adds setup_s
	Extra     map[string]float64 `json:"extra,omitempty"`  // derived figures printed beside them
	Layers    map[string]float64 `json:"layers,omitempty"` // traced repetitions only
	Digest    string             `json:"digest"`           // must agree across repetitions of one seed
	Problems  []string           `json:"problems,omitempty"`
}

// child is the state of one repetition. Workloads fill res through begin,
// lap, end, finish and fail.
type child struct {
	wl     *workloadDef
	seed   int64
	window time.Duration
	nproc  int
	rec    *recorder // nil on untraced repetitions
	root   handle    // the repetition's root span
	res    repResult

	// The measured window: begin sets t0 and the first lap, end the rest.
	t0       time.Time
	laps     []lap
	mallocs0 uint64
	elapsed  time.Duration
	allocs   uint64

	mu sync.Mutex // guards res.Problems: clients fail concurrently
}

// lap is a slice boundary of the measured window: the instant, and the
// process's CPU time at it.
type lap struct {
	at  time.Duration // since t0
	cpu time.Duration
}

// sliceStat is the end-to-end figures of one slice of the window. The host
// is shared and its speed changes from second to second, so a repetition is
// measured as many short slices and reports the best tenth of them (see
// bestDecile): the nearest to what the code costs on a quiet machine.
type sliceStat struct {
	throughput float64 // correct ops per second
	p50, tail  float64 // op latency, ms
	cpuPerOp   float64 // us
}

// fail records an incorrect or failed result; the first few are kept.
func (c *child) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.res.Problems) < 8 {
		c.res.Problems = append(c.res.Problems, fmt.Sprintf(format, args...))
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// begin ends set-up and opens the measured window. It collects garbage
// first so every window starts from a settled heap.
func (c *child) begin() {
	runtime.GC()
	c.t0 = time.Now()
	c.res.StartedNS = c.t0.UnixNano()
	c.laps = append(make([]lap, 0, 1<<10), lap{0, cpuTime()}) // room for every slice: lap must not allocate
	c.mallocs0 = mallocs()
}

// lap closes a slice of the window and opens the next. One goroutine calls
// it, between ops.
func (c *child) lap() lap {
	l := lap{time.Since(c.t0), cpuTime()}
	c.laps = append(c.laps, l)
	return l
}

// end closes the measured window; whatever runs after it (checking cold
// replies against the oracle, the ladders) is not charged to the workload.
func (c *child) end() {
	c.elapsed = c.lap().at
	c.allocs = mallocs() - c.mallocs0
}

// cpuSince is the CPU time per op, in microseconds, of ops ops since from.
func cpuSince(from, to lap, ops int) float64 {
	return us(to.cpu-from.cpu) / float64(max(ops, 1))
}

// finish scores the closed window: ok ops completed correctly out of
// attempted, slice by slice; lats are all the op latencies in milliseconds.
func (c *child) finish(attempted, ok int, slices []sliceStat, lats []float64) {
	c.res.Attempted, c.res.OK, c.res.Failed = attempted, ok, attempted-ok
	pick := func(better string, of func(sliceStat) float64) float64 {
		v := make([]float64, len(slices))
		for i, s := range slices {
			v[i] = of(s)
		}
		return bestDecile(v, better)
	}
	c.res.Metrics = map[string]float64{
		"throughput_ops_s": pick("higher", func(s sliceStat) float64 { return s.throughput }),
		"latency_p50_ms":   pick("lower", func(s sliceStat) float64 { return s.p50 }),
		"latency_tail_ms":  pick("lower", func(s sliceStat) float64 { return s.tail }),
	}
	c.extra("cpu_us_per_op", pick("lower", func(s sliceStat) float64 { return s.cpuPerOp }))
	sort.Float64s(lats)
	c.extra("allocs_per_op", float64(c.allocs)/float64(max(ok, 1)))
	c.extra("latency_p99_ms", quantile(lats, 0.99))
	c.extra("slices", float64(len(slices)))
}

func (c *child) extra(name string, v float64) {
	if c.res.Extra == nil {
		c.res.Extra = make(map[string]float64)
	}
	c.res.Extra[name] = v
}

func (c *child) layer(name string, v float64) {
	if c.res.Layers == nil {
		c.res.Layers = make(map[string]float64)
	}
	c.res.Layers[name] = v
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runChild is the child's main: run one repetition and print its result.
func runChild(wl *workloadDef, seed int64, window time.Duration, traced bool, outDir string) error {
	c := &child{wl: wl, seed: seed, window: window, nproc: runtime.NumCPU()}
	c.res.Workload = wl.Name
	if traced {
		c.rec = newRecorder()
		c.root = c.rec.begin(handle{}, wl.Name)
	}
	if err := wl.run(c); err != nil {
		return err
	}
	c.res.Metrics["rss_peak_mb"] = peakRSSMB()
	if traced {
		c.root.end()
		c.layer("bench.latency_p99_ms", c.res.Extra["latency_p99_ms"])
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := c.rec.writeJSONL(filepath.Join(outDir, "trace-"+wl.Name+".jsonl")); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(&c.res)
}

// spawn runs one repetition in a fresh re-exec'd process, so resident
// memory, GC state and the servers' span logs start identical every time
// (obs.Tracer never trims its spans, so a window's result depends on
// uptime). Set-up time runs from the spawn to the child's first measured
// op.
func spawn(wl *workloadDef, seed int64, window time.Duration, traced bool, outDir string) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{"-child", "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
		"-window", window.String(), "-trace", tr, "-out", outDir}
	if sz.childFlag != "" {
		args = append(args, sz.childFlag)
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("%s child: %w", wl.Name, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return repResult{}, fmt.Errorf("%s child result: %w", wl.Name, err)
	}
	res.Metrics["setup_s"] = time.Unix(0, res.StartedNS).Sub(start).Seconds()
	return res, nil
}
