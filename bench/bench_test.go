package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: spawn
// re-executes os.Executable with -child, which here is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// bytes renders the stream as sent.
func (t trace) bytes() []byte {
	var out []byte
	for k, i := range t.order {
		r := t.reqs[i]
		out = append(out, r.Path...)
		out = append(out, ' ')
		if t.tenants != nil {
			out = append(out, t.tenants[k]...)
			out = append(out, ' ')
		}
		out = append(out, r.Body...)
		out = append(out, '\n')
	}
	return out
}

func TestRequestStreamsAreSeedDeterministic(t *testing.T) {
	streams := map[string]func(seed int64) []byte{
		"predict_warm":   func(seed int64) []byte { return warmTrace(seed, 512).bytes() },
		"predict_cold":   func(seed int64) []byte { return coldTrace(seed, 64).bytes() },
		"cluster_mixed":  func(seed int64) []byte { return mixedTrace(seed, 2000).bytes() },
		"fleet_campaign": campaignDoc,
	}
	for name, gen := range streams {
		if !bytes.Equal(gen(1), gen(1)) {
			t.Errorf("%s: the same seed gave different bytes", name)
		}
		if bytes.Equal(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same bytes", name)
		}
	}
}

func TestMixedTraceQuotas(t *testing.T) {
	tr := mixedTrace(3, 4000)
	var cold, plan int
	for _, i := range tr.order {
		switch r := tr.reqs[i]; {
		case r.Cold:
			cold++
		case r.plan != nil:
			plan++
		}
	}
	if len(tr.order) != 4000 || cold != 4 || plan != 400 {
		t.Errorf("4000 sends: got %d with %d cold and %d plans, want 4000, 4 and 400", len(tr.order), cold, plan)
	}
}

// benchmarkFile is BENCHMARK.json as the acceptance driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code's default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the code has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q), the code has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code's table")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound > 0.25 {
			t.Errorf("metric %+v is malformed", m)
		}
	}
}

// TestSmokeRunEmitsExactlyTheListedMetrics drives every workload and its
// ladder once at smoke size: each must report every end-to-end metric and
// only listed per-layer metrics, and between them the five traced
// repetitions must cover the whole per-layer table.
func TestSmokeRunEmitsExactlyTheListedMetrics(t *testing.T) {
	sz = smoke
	defer func() { sz = full }()
	out := t.TempDir()
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m.Name] = false
	}
	for i := range workloads {
		wl := &workloads[i]
		r, err := spawn(wl, 1, 100*time.Millisecond, true, out)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 || len(r.Problems) != 0 || r.Attempted < 1 {
			t.Errorf("%s: %d of %d ops failed: %v", wl.Name, r.Failed, r.Attempted, r.Problems)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", wl.Name, len(r.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", wl.Name, m.Name, v)
			}
		}
		for name := range r.Layers {
			if _, ok := listed[name]; !ok {
				t.Errorf("%s emits %s, which BENCHMARK.json does not list", wl.Name, name)
			}
			listed[name] = true
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+wl.Name+".jsonl")); err != nil {
			t.Error(err)
		}
	}
	// The parent computes these from the untraced repetitions.
	for _, name := range []string{"bench.trace_overhead_frac", "bench.allocs_per_op", "bench.cpu_us_per_op"} {
		listed[name] = true
	}
	for name, emitted := range listed {
		if !emitted {
			t.Errorf("no workload emits %s", name)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	// judge compares best repetitions; these spread evenly about med, so
	// the best of two summaries differ by what their meds do.
	tight := func(med float64) summary {
		return summary{Median: med, Q1: med * 0.99, Q3: med * 1.01, Min: med * 0.98, Max: med * 1.02, N: 5}
	}
	wide := func(med float64) summary {
		return summary{Median: med, Q1: med * 0.9, Q3: med * 1.1, Min: med * 0.8, Max: med * 1.2, N: 5}
	}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b summary
		want verdict
	}{
		{"inside the bound", lower, tight(100), tight(105), unchanged},
		{"slower past the bound", lower, tight(100), tight(115), regressed},
		{"faster past the bound", lower, tight(100), tight(80), improved},
		{"higher is better: a drop regresses", higher, tight(100), tight(85), regressed},
		{"higher is better: a rise improves", higher, tight(100), tight(120), improved},
		{"spread wider than the bound", lower, wide(100), wide(95), unresolved},
		{"wide, but every run better", lower, wide(100), wide(60), improved},
		{"wide, and worse past the bound", lower, wide(100), wide(130), regressed},
		{"no samples", lower, summary{}, tight(1), unresolved},
	} {
		if got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareResultsFlagsRegressionsAndFailures(t *testing.T) {
	mk := func(p50 float64, failFrac float64) suiteResult {
		return suiteResult{EndToEnd: []metricDef{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
			Workloads: []workloadResult{{Workload: "predict_warm", Correct: failFrac == 0, FailFrac: failFrac,
				EndToEnd: map[string]summary{"latency_p50_ms": {Median: p50, Q1: p50, Q3: p50, Min: p50, Max: p50, N: 5}}}}}
	}
	var out bytes.Buffer
	if compareResults(&out, mk(1, 0), mk(1.05, 0)) {
		t.Errorf("5%% inside a 10%% bound was flagged:\n%s", out.String())
	}
	if !compareResults(&out, mk(1, 0), mk(1.2, 0)) {
		t.Error("20% past a 10% bound was not flagged")
	}
	if !compareResults(&out, mk(1, 0), mk(1, 0.01)) {
		t.Error("a higher fail_frac was not flagged")
	}
	if !strings.Contains(out.String(), "predict_warm") || !strings.Contains(out.String(), "regressed") {
		t.Errorf("report lacks the workload row or the verdict:\n%s", out.String())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},    // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120},   // clipped to the parent
		{ID: 5, Parent: 2, Name: "leaf", StartNS: 10, EndNS: 25}, // grandchild: a's business only
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 50 - 10, 2: 15, 3: 30, 4: 30, 5: 15} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
}

// selfByName sums self time in nanoseconds over the spans of each name,
// replay spans only or operation spans only.
func selfByName(spans []span, replay bool) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		if s.Replay == replay {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

func TestReplayLaddersClose(t *testing.T) {
	r := newRecorder()
	root := r.begin(handle{}, "rep")
	r.replay(root, true, []rung{{"loopback", 100}, {"handler", 60}, {"predict", 25}})
	r.replay(root, false, []rung{{"cold_handler", 100}, {"stage1", 30}, {"stage2", 50}})
	root.end()
	self := selfByName(r.spans, true)
	for name, want := range map[string]int64{"loopback": 40, "handler": 35, "predict": 25, "cold_handler": 20, "stage1": 30, "stage2": 50} {
		if self[name] != want {
			t.Errorf("%s: self time %d, want %d", name, self[name], want)
		}
	}
	if sum := self["loopback"] + self["handler"] + self["predict"]; sum != 100 {
		t.Errorf("nested rungs' self times sum to %d, want the outer rung's 100", sum)
	}
	for _, s := range r.spans[1:] {
		if !s.Replay || s.Trace != r.spans[0].Trace {
			t.Errorf("span %+v is not a replay span of the repetition's trace", s)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
}
