package obs

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/units"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("kind", "spot"))
	c.Inc()
	c.Add(2)
	c.Add(-5)          // ignored
	c.Add(math.NaN())  // ignored
	c.Add(math.Inf(1)) // ignored
	if got := c.Value(); !units.ApproxEqual(got, 3, 1e-12) {
		t.Fatalf("counter value %g, want 3", got)
	}
	// Same name+labels returns the same instrument, label order ignored.
	if r.Counter("requests_total", L("kind", "spot")) != c {
		t.Fatalf("re-lookup returned a different counter")
	}
	two := r.Counter("x", L("a", "1"), L("b", "2"))
	if r.Counter("x", L("b", "2"), L("a", "1")) != two {
		t.Fatalf("label order changed instrument identity")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); !units.ApproxEqual(got, 3, 1e-12) {
		t.Fatalf("gauge value %g, want 3", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	// Inclusive upper bounds: exactly 1.0 lands in bucket 0, the first
	// value above it in bucket 1, values above the last bound overflow.
	h.Observe(1.0)
	h.Observe(math.Nextafter(1.0, 2.0))
	h.Observe(2.0)
	h.Observe(2.0000001)
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.Inf(1))  // overflow bucket
	h.Observe(math.Inf(-1)) // first bucket
	h.Observe(math.NaN())   // dropped
	if h.Count() != 8 {
		t.Fatalf("count %d, want 8 (NaN dropped)", h.Count())
	}
	want := []uint64{4, 2, 2} // le=1: {1.0, 0, -3, -Inf}; le=2: {1.0...01, 2.0}; overflow: {2.0000001, +Inf}
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d count %d, want %d (counts=%v)", i, h.counts[i], w, h.counts)
		}
	}
}

func TestHistogramRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("step_s", []float64{1, 2, 3})
	h2 := r.Histogram("step_s", []float64{9, 99}) // pre-existing keeps original bounds
	if h1 != h2 {
		t.Fatalf("same name returned different histograms")
	}
	if len(h1.bounds) != 3 {
		t.Fatalf("bounds overwritten on re-lookup: %v", h1.bounds)
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // all in bucket le=1
	}
	snap := singleMetric(t, h)
	// All mass in [0,1]: p50 interpolates to the bucket midpoint.
	if got := snap.Quantile(0.5); !units.ApproxEqual(got, 0.5, 1e-9) {
		t.Fatalf("p50 = %g, want 0.5", got)
	}
	if got := snap.Quantile(1.0); !units.ApproxEqual(got, 1.0, 1e-9) {
		t.Fatalf("p100 = %g, want 1.0", got)
	}
	if !math.IsNaN(snap.Quantile(0)) || !math.IsNaN(snap.Quantile(1.5)) {
		t.Fatalf("out-of-range q did not return NaN")
	}

	// Overflow clamps to the last bound.
	o := NewHistogram([]float64{1})
	o.Observe(100)
	if got := singleMetric(t, o).Quantile(0.99); !units.ApproxEqual(got, 1, 1e-9) {
		t.Fatalf("overflow quantile = %g, want clamp to 1", got)
	}

	if !math.IsNaN(Metric{Type: "histogram"}.Quantile(0.5)) {
		t.Fatalf("empty histogram quantile is not NaN")
	}
	if !math.IsNaN(Metric{Type: "counter", Count: 1}.Quantile(0.5)) {
		t.Fatalf("non-histogram quantile is not NaN")
	}
}

// singleMetric snapshots a standalone histogram through a throwaway
// registry-shaped Metric.
func singleMetric(t *testing.T, h *Histogram) Metric {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	return Metric{
		Type:     "histogram",
		BucketLE: append([]float64(nil), h.bounds...),
		Counts:   append([]uint64(nil), h.counts...),
		Sum:      h.sum,
		Count:    h.n,
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() []Metric {
		r := NewRegistry()
		r.Counter("zeta").Inc()
		r.Gauge("alpha", L("x", "2")).Set(1)
		r.Gauge("alpha", L("x", "1")).Set(2)
		r.Histogram("mid", []float64{1}).Observe(0.5)
		return r.Snapshot()
	}
	a, b := build(), build()
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("snapshot sizes %d/%d, want 4", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || metricLabel(a[i]) != metricLabel(b[i]) {
			t.Fatalf("snapshot order differs at %d: %q vs %q", i, metricLabel(a[i]), metricLabel(b[i]))
		}
	}
	if a[0].Name != "alpha" || a[0].Label("x") != "1" {
		t.Fatalf("snapshot not sorted: first is %q{x=%s}", a[0].Name, a[0].Label("x"))
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned non-nil instruments")
	}
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("nil instruments reported values")
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry snapshot non-nil")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("ops_total").Inc()
				r.Histogram("lat_s", ExpBuckets(1e-6, 10, 8)).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total").Value(); !units.ApproxEqual(got, 800, 1e-9) {
		t.Fatalf("counter %g, want 800", got)
	}
	if got := r.Histogram("lat_s", nil).Count(); got != 800 {
		t.Fatalf("histogram count %d, want 800", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 3)
	want := []float64{1e-6, 1e-5, 1e-4}
	if len(b) != 3 {
		t.Fatalf("len %d", len(b))
	}
	for i := range want {
		if !units.ApproxEqual(b[i], want[i], 1e-15) {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

// TestRuntimeMetrics: the runtime gauges read live values, in Snapshot
// order, and merge as gauges.
func TestRuntimeMetrics(t *testing.T) {
	ms := RuntimeMetrics()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
		if m.Type != "gauge" {
			t.Errorf("%s is a %s, want a gauge", m.Name, m.Type)
		}
	}
	if want := []string{"go_gc_pause_cpu_seconds", "go_goroutines", "go_heap_inuse_bytes"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("runtime gauges %v, want %v", names, want)
	}
	if ms[1].Value < 1 || ms[2].Value <= 0 {
		t.Fatalf("goroutines %v, heap in use %v: want live readings", ms[1].Value, ms[2].Value)
	}
	merged, err := MergeMetrics(RuntimeMetrics(), ms)
	if err != nil || len(merged) != len(ms) {
		t.Fatalf("two processes' runtime gauges merged into %d metrics (%v)", len(merged), err)
	}
}
