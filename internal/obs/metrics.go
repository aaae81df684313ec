package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// Label is one dimension of a metric's identity. A metric instrument is
// identified by its name plus the set of its labels (order-insensitive;
// the registry canonicalizes by key).
type Label struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// canonLabels returns the sorted copy of labels and their canonical
// identity string. \x00/\x01 separators cannot collide with printable
// label content the way "|" or "," could.
func canonLabels(labels []Label) ([]Label, string) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Key != ls[j].Key {
			return ls[i].Key < ls[j].Key
		}
		return ls[i].Value < ls[j].Value
	})
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte(0x00)
		b.WriteString(l.Value)
		b.WriteByte(0x01)
	}
	return ls, b.String()
}

// Registry holds a process's metric instruments. It is injected into
// the subsystems that record metrics — there is no package-level
// default — and a nil *Registry is a valid no-op sink: every accessor
// returns a nil instrument whose methods do nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// instrument carries the shared identity of a registered metric.
type instrument struct {
	name   string
	labels []Label // canonical order
	key    string
}

func newInstrument(name string, labels []Label) instrument {
	ls, canon := canonLabels(labels)
	return instrument{name: name, labels: ls, key: name + "\x02" + canon}
}

// Counter is a monotonically non-decreasing sum.
type Counter struct {
	inst instrument
	mu   sync.Mutex
	v    float64
}

// Counter returns (creating on first use) the counter with the given
// name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	in := newInstrument(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[in.key]
	if !ok {
		c = &Counter{inst: in}
		r.counters[in.key] = c
	}
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative, NaN and Inf deltas are ignored —
// a counter only moves forward by finite amounts.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	c.mu.Lock()
	c.v += v
	c.mu.Unlock()
}

// Value returns the current sum.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a value that can move both ways.
type Gauge struct {
	inst instrument
	mu   sync.Mutex
	v    float64
}

// Gauge returns (creating on first use) the gauge with the given name
// and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	in := newInstrument(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[in.key]
	if !ok {
		g = &Gauge{inst: in}
		r.gauges[in.key] = g
	}
	return g
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add shifts the gauge's value.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += v
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket distribution. Buckets are inclusive upper
// bounds ("le" semantics): an observation lands in the first bucket
// whose bound is >= the value; values above the last bound land in the
// implicit overflow bucket.
type Histogram struct {
	inst   instrument
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; the last slot is the overflow bucket
	sum    float64
	n      uint64
}

// NewHistogram builds a standalone (unregistered) histogram — the
// lock-free-by-ownership accumulator pattern: give each goroutine its
// own and Merge them afterwards. Bounds are copied and sorted.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Histogram returns (creating on first use) the registered histogram
// with the given name, bucket bounds and labels. A pre-existing
// instrument keeps its original bounds; the bounds argument only shapes
// the first creation.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	in := newInstrument(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[in.key]
	if !ok {
		h = NewHistogram(bounds)
		h.inst = in
		r.hists[in.key] = h
	}
	return h
}

// Observe records one value. NaN observations are dropped (they carry
// no position on the axis); -Inf lands in the first bucket and +Inf in
// the overflow bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	h.counts[bucketIndex(h.bounds, v)]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// bucketIndex returns the index of the first bound >= v (le semantics),
// or len(bounds) for the overflow bucket.
func bucketIndex(bounds []float64, v float64) int {
	return sort.SearchFloat64s(bounds, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// ExpBuckets builds n bucket bounds growing geometrically from start by
// factor — the usual shape for latency distributions.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	b := start
	for i := 0; i < n; i++ {
		out = append(out, b)
		b *= factor
	}
	return out
}

// Metric is the exportable snapshot of one instrument.
type Metric struct {
	Name   string  `json:"name"`
	Type   string  `json:"type"` // "counter", "gauge" or "histogram"
	Labels []Label `json:"labels,omitempty"`

	// Value is the counter sum or gauge level.
	Value float64 `json:"value,omitempty"`

	// Histogram state: BucketLE holds the inclusive upper bounds,
	// Counts one slot per bound plus the trailing overflow bucket.
	BucketLE []float64 `json:"bucket_le,omitempty"`
	Counts   []uint64  `json:"counts,omitempty"`
	Sum      float64   `json:"sum,omitempty"`
	Count    uint64    `json:"count,omitempty"`
}

// Label returns the value of the named label, or "".
func (m Metric) Label(key string) string {
	for _, l := range m.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Quantile estimates the q-quantile (0 < q <= 1) of a histogram metric
// by linear interpolation inside the covering bucket, the conventional
// fixed-bucket estimator. Observations in the overflow bucket clamp to
// the last bound. Returns NaN for empty or non-histogram metrics.
func (m Metric) Quantile(q float64) float64 {
	if m.Type != "histogram" || m.Count == 0 || q <= 0 || q > 1 {
		return math.NaN()
	}
	target := q * float64(m.Count)
	var cum float64
	for i, c := range m.Counts {
		prev := cum
		cum += float64(c)
		if cum < target {
			continue
		}
		if i >= len(m.BucketLE) {
			return m.BucketLE[len(m.BucketLE)-1] // overflow: clamp
		}
		lo := 0.0
		if i > 0 {
			lo = m.BucketLE[i-1]
		}
		hi := m.BucketLE[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	return m.BucketLE[len(m.BucketLE)-1]
}

// Snapshot exports every instrument, sorted by name then canonical
// label string, so equal registries render byte-identically. A nil
// registry yields nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type entry struct {
		key string
		m   Metric
	}
	var entries []entry
	for k, c := range r.counters {
		c.mu.Lock()
		entries = append(entries, entry{k, Metric{Name: c.inst.name, Type: "counter", Labels: c.inst.labels, Value: c.v}})
		c.mu.Unlock()
	}
	for k, g := range r.gauges {
		g.mu.Lock()
		entries = append(entries, entry{k, Metric{Name: g.inst.name, Type: "gauge", Labels: g.inst.labels, Value: g.v}})
		g.mu.Unlock()
	}
	for k, h := range r.hists {
		h.mu.Lock()
		entries = append(entries, entry{k, Metric{
			Name:     h.inst.name,
			Type:     "histogram",
			Labels:   h.inst.labels,
			BucketLE: append([]float64(nil), h.bounds...),
			Counts:   append([]uint64(nil), h.counts...),
			Sum:      h.sum,
			Count:    h.n,
		}})
		h.mu.Unlock()
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	out := make([]Metric, len(entries))
	for i, e := range entries {
		out[i] = e.m
	}
	return out
}
