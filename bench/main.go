// Command bench is the repository's one benchmark: five workloads, the
// end-to-end metrics a user of the system sees, and a traced pass that
// times each layer from outside through its exported API. BENCHMARK.json
// at the repository root names the command; README.md in this directory
// explains the workloads, the metrics and how to read a trace.
//
//	go run ./bench -seed 1                         every workload, then the traced pass
//	go run ./bench -workload W -seed 1 -trace 0    one workload, end-to-end metrics
//	go run ./bench -workload W -seed 1 -trace 1    one workload, per-layer metrics
//	go run ./bench -compare a.json b.json          judge two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload (default: all five, interleaved, then the traced pass)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "measured seconds per workload, split over the repetitions")
	traced := fs.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a traced repetition")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
	isChild := fs.Bool("child", false, "internal: run one repetition and print its result")
	window := fs.Duration("window", 0, "internal: the child's measured window")
	smokeSized := fs.Bool("smoke", false, "internal: bench_test.go's sizes; the numbers mean nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *smokeSized {
		sz = smoke
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fail(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	var wl *workloadDef
	if *workload != "" {
		if wl = findWorkload(*workload); wl == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
	}
	if *isChild {
		if wl == nil {
			return fail(fmt.Errorf("-child needs -workload"))
		}
		if err := runChild(wl, *seed, *window, *traced == 1, *outDir); err != nil {
			return fail(err)
		}
		return 0
	}
	// The load generator may not be wider than the machine: GOMAXPROCS is
	// nproc, and every workload uses at most nproc clients and connections.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fail(fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	p := protocol{seed: *seed, window: time.Duration(*seconds) * time.Second / repetitions, outDir: *outDir, log: stdout}
	var err error
	var correct bool
	if wl != nil {
		correct, err = p.runOne(wl, *traced == 1)
	} else {
		correct, err = p.runSuite()
	}
	if err != nil {
		return fail(err)
	}
	if !correct {
		return 1
	}
	return 0
}

// protocol is one invocation's fixed settings.
type protocol struct {
	seed   int64
	window time.Duration
	outDir string
	log    io.Writer
}

// workloadResult is a workload's figures over its repetitions.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"ops_attempted"`
	OK        int                `json:"ops_ok"`
	Failed    int                `json:"ops_failed"`
	FailFrac  float64            `json:"fail_frac"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	Extra     map[string]summary `json:"extra,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

// fold reduces untraced repetitions to summaries and checks what only the
// set can show: that repetitions of one seed agree byte for byte, and
// that the open-loop generator kept up.
func fold(wl *workloadDef, reps []repResult) workloadResult {
	res := workloadResult{Workload: wl.Name, EndToEnd: map[string]summary{}, Extra: map[string]summary{}}
	e2e, extra := map[string][]float64{}, map[string][]float64{}
	for _, r := range reps {
		res.Attempted, res.OK, res.Failed = res.Attempted+r.Attempted, res.OK+r.OK, res.Failed+r.Failed
		res.Problems = append(res.Problems, r.Problems...)
		if r.Digest != reps[0].Digest {
			res.Problems = append(res.Problems, fmt.Sprintf("repetitions disagree: digest %q against %q", r.Digest, reps[0].Digest))
		}
		for k, v := range r.Metrics {
			e2e[k] = append(e2e[k], v)
		}
		for k, v := range r.Extra {
			extra[k] = append(extra[k], v)
		}
	}
	for k, v := range e2e {
		res.EndToEnd[k] = summarize(v)
	}
	for k, v := range extra {
		res.Extra[k] = summarize(v)
	}
	if lag := res.Extra["gen_lag_p99_ms"].Median; lag > maxGenLagMS {
		res.Problems = append(res.Problems, fmt.Sprintf("open-loop generator lag p99 %.3f ms exceeds %g ms", lag, maxGenLagMS))
	}
	res.FailFrac = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res
}

// layers fills a workload's per-layer metrics from its traced repetition.
// Tracing overhead is the throughput the traced repetition lost against
// the best untraced one.
func (res *workloadResult) layers(traced repResult) {
	res.PerLayer = make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		res.PerLayer[m.Name] = traced.Layers[m.Name]
	}
	if base := res.EndToEnd["throughput_ops_s"].Max; base > 0 {
		res.PerLayer["bench.trace_overhead_frac"] = 1 - traced.Metrics["throughput_ops_s"]/base
	}
	// Heap allocations per op of the untraced repetitions: the recorder's
	// own spans would count in the traced one.
	res.PerLayer["bench.allocs_per_op"] = res.Extra["allocs_per_op"].Min
	res.PerLayer["bench.cpu_us_per_op"] = res.Extra["cpu_us_per_op"].Min
	res.Problems = append(res.Problems, traced.Problems...)
	res.Correct = res.Correct && traced.Failed == 0 && len(traced.Problems) == 0
}

func (p protocol) print(res workloadResult) {
	fmt.Fprintf(p.log, "\n%s: ops attempted %d, ok %d, failed %d, fail_frac %.4g\n",
		res.Workload, res.Attempted, res.OK, res.Failed, res.FailFrac)
	line := func(m metricDef, s summary) {
		fmt.Fprintf(p.log, "  %-34s %14.6g %-7s (median %.6g, q1 %.6g, q3 %.6g, worst %.6g, n=%d)\n",
			m.Name, s.value(m), m.Unit, s.Median, s.Q1, s.Q3, s.worst(m), s.N)
	}
	for _, m := range endToEnd {
		if s, ok := res.EndToEnd[m.Name]; ok {
			line(m, s)
		}
	}
	for _, m := range derived {
		if s, ok := res.Extra[m.Name]; ok {
			line(m, s)
		}
	}
	for _, m := range perLayer {
		if v, ok := res.PerLayer[m.Name]; ok && (v != 0 || strings.HasPrefix(m.Name, "bench.")) {
			fmt.Fprintf(p.log, "  %-34s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, problem := range res.Problems {
		fmt.Fprintf(p.log, "  PROBLEM: %s\n", problem)
	}
}

// derived are the figures printed beside the end-to-end metrics and kept
// in the result file under "extra".
var derived = []metricDef{
	{Name: "solve_mflups", Unit: "MFLUPS", Better: "higher"},
	{Name: "par_mflups", Unit: "MFLUPS", Better: "higher"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "allocs_per_op", Unit: "1", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "slices", Unit: "count", Better: "higher"},
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload: R untraced repetitions for the end-to-end
// metrics, or with traced set one untraced and one traced repetition for
// the per-layer ones. Its last line of output is the result object.
func (p protocol) runOne(wl *workloadDef, traced bool) (bool, error) {
	n := repetitions
	if traced {
		n = 1
	}
	var reps []repResult
	for i := 0; i < n; i++ {
		r, err := spawn(wl, p.seed, p.window, false, p.outDir)
		if err != nil {
			return false, err
		}
		reps = append(reps, r)
	}
	res := fold(wl, reps)
	out := contractLine{Metrics: map[string]contractValue{}}
	if traced {
		tr, err := spawn(wl, p.seed, p.window, true, p.outDir)
		if err != nil {
			return false, err
		}
		res.layers(tr)
		for _, m := range perLayer {
			out.Metrics[m.Name] = contractValue{res.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = contractValue{res.EndToEnd[m.Name].value(m), m.Unit}
		}
	}
	p.print(res)
	out.Correct, out.Attempted, out.Failed = res.Correct, max(res.Attempted, 1), res.Failed
	return res.Correct, json.NewEncoder(p.log).Encode(out)
}

// suiteResult is the result file of a whole run, the input of -compare.
type suiteResult struct {
	Env       map[string]any   `json:"env"`
	EndToEnd  []metricDef      `json:"end_to_end"`
	Workloads []workloadResult `json:"workloads"`
}

// runSuite measures all five workloads. Repetitions are interleaved round
// robin (rep 1 of all five, then rep 2, ...) so a slow phase of the shared
// host hits every workload alike; the traced pass follows.
func (p protocol) runSuite() (bool, error) {
	reps := make([][]repResult, len(workloads))
	for i := 0; i < repetitions; i++ {
		for w := range workloads {
			r, err := spawn(&workloads[w], p.seed, p.window, false, p.outDir)
			if err != nil {
				return false, err
			}
			reps[w] = append(reps[w], r)
		}
	}
	out := suiteResult{Env: p.env(), EndToEnd: endToEnd}
	correct := true
	for w := range workloads {
		res := fold(&workloads[w], reps[w])
		tr, err := spawn(&workloads[w], p.seed, p.window, true, p.outDir)
		if err != nil {
			return false, err
		}
		res.layers(tr)
		p.print(res)
		correct = correct && res.Correct
		out.Workloads = append(out.Workloads, res)
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(p.outDir, fmt.Sprintf("result-seed%d.json", p.seed))
	doc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(p.log, "\nresult: %s, traces: %s\n", path, filepath.Join(p.outDir, "trace-<workload>.jsonl"))
	return correct, nil
}

// env records what the numbers were measured on.
func (p protocol) env() map[string]any {
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(info), "\n") {
			if rest, ok := strings.CutPrefix(l, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpu, "caches": cacheSizes(), "stream_elems": sz.streamElems,
		"seed": p.seed, "window_s": p.window.Seconds(), "repetitions": repetitions,
	}
}
