// Package obs is the repository's observability layer: hierarchical span
// tracing and a metrics registry, both stdlib-only and injection-based
// (no global mutable state). It closes the measure→model→refine loop the
// paper's Discussion anticipates ("performance monitoring projects such
// as SONAR") by making visible where simulated time and wall time go
// inside a campaign — queue wait vs. placement vs. preemption vs.
// compute vs. halo exchange.
//
// Every span carries two timelines: simulated seconds from the
// discrete-event clock of the producing subsystem (fleet scheduler,
// cloud provider), and wall time read from an injectable Clock (the
// internal/par pattern). Span IDs are derived deterministically from a
// seed and a start sequence number, so two runs under one seed produce
// byte-identical traces — the fleet scheduler's reproducibility contract
// extended to telemetry.
//
// Traces export as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing), JSONL dumps, or a fixed-width text summary; see
// export.go and cmd/trace.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Clock abstracts the wall clock behind span wall timestamps. Production
// tracers measure real time; deterministic harnesses inject a virtual
// clock so wall fields replay exactly (simulated timestamps are supplied
// by the caller and are always deterministic).
type Clock func() time.Time

// SpanID is a deterministic 64-bit span identifier. The zero value means
// "no span" (a root span's parent).
type SpanID uint64

// String renders the ID as 16 hex digits, or "" for the zero ID.
func (id SpanID) String() string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(id))
}

// TraceID is a deterministic 128-bit trace identifier grouping every
// span — across processes — that served one logical request. The zero
// value means "no trace". Locally rooted spans derive their trace ID
// from their own span ID (Hi = 0); spans started from a remote parent
// inherit the trace ID carried by the traceparent header, so a request
// that crosses the cluster router keeps one identity end to end.
type TraceID struct {
	Hi uint64
	Lo uint64
}

// IsZero reports whether the ID is the "no trace" value.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the ID as 32 hex digits, or "" for the zero ID.
func (t TraceID) String() string {
	if t.IsZero() {
		return ""
	}
	return fmt.Sprintf("%016x%016x", t.Hi, t.Lo)
}

// Mix64 is the SplitMix64 finalizer: a cheap bijection on uint64 whose
// output bits each depend on every input bit. Span IDs, ring positions
// and Retry-After jitter all finish with it, so nearby seeds, sequence
// numbers and keys land far apart.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// spanID mixes the tracer seed and the span's start sequence number
// through Mix64. Same seed + same start order = same IDs; the mixing
// keeps IDs from colliding across nearby seeds.
func spanID(seed int64, seq uint64) SpanID {
	x := Mix64(uint64(seed)*0x9E3779B97F4A7C15 + (seq+1)*0xBF58476D1CE4E5B9)
	if x == 0 {
		x = 1 // reserve 0 for "no span"
	}
	return SpanID(x)
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Tracer collects spans. A nil *Tracer is a valid no-op: every method is
// nil-safe, so instrumented code needs no conditionals when tracing is
// off.
type Tracer struct {
	mu    sync.Mutex
	seed  int64
	seq   uint64
	now   Clock
	spans []*Span
}

// NewTracer creates a tracer whose span IDs derive from the seed.
func NewTracer(seed int64) *Tracer {
	return &Tracer{seed: seed, now: time.Now}
}

// SetClock replaces the wall clock behind span wall timestamps. Passing
// nil restores time.Now.
func (t *Tracer) SetClock(c Clock) {
	if t == nil {
		return
	}
	if c == nil {
		c = time.Now
	}
	t.mu.Lock()
	t.now = c
	t.mu.Unlock()
}

// Span is one traced operation: a named interval with a parent link,
// dual start/end timestamps, and attributes. All methods are safe on a
// nil *Span (the no-op span a nil Tracer hands out).
type Span struct {
	t         *Tracer
	id        SpanID
	parent    SpanID
	trace     TraceID
	name      string
	track     string
	simStart  float64 // simulated seconds
	simEnd    float64
	wallStart time.Time
	wallEnd   time.Time
	attrs     []Attr
	ended     bool
}

// Start opens a root span at the given simulated time. The span roots a
// fresh trace whose ID derives from the span's own deterministic ID.
func (t *Tracer) Start(name string, simS float64) *Span {
	return t.start(0, TraceID{}, "", name, simS)
}

// StartChild opens a span under parent (nil parent makes a root span).
// The child inherits the parent's track until SetTrack overrides it,
// and the parent's trace identity always.
func (t *Tracer) StartChild(parent *Span, name string, simS float64) *Span {
	var pid SpanID
	var trace TraceID
	track := ""
	if parent != nil {
		pid = parent.id
		trace = parent.trace
		track = parent.track
	}
	return t.start(pid, trace, track, name, simS)
}

// StartRemote opens a span whose parent lives in another process, as
// carried by a traceparent header: the new span's parent link is the
// remote span ID and its trace identity is the propagated trace ID, so
// multi-process exports stitch into one tree (see cmd/trace -merge).
func (t *Tracer) StartRemote(tp TraceParent, name string, simS float64) *Span {
	return t.start(tp.SpanID, tp.TraceID, "", name, simS)
}

func (t *Tracer) start(parent SpanID, trace TraceID, track, name string, simS float64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(t.seed, t.seq)
	if trace.IsZero() {
		trace = TraceID{Lo: uint64(id)}
	}
	s := &Span{
		t:         t,
		id:        id,
		parent:    parent,
		trace:     trace,
		name:      name,
		track:     track,
		simStart:  simS,
		simEnd:    simS,
		wallStart: t.now(),
	}
	t.seq++
	t.spans = append(t.spans, s)
	return s
}

// ID returns the span's deterministic identifier (0 on a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the span's trace identity (zero on a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// TraceParent returns the context to propagate to a downstream process
// so its handler span becomes this span's child: this span's trace ID
// and its own span ID as the remote parent. Zero on a nil span.
func (s *Span) TraceParent() TraceParent {
	if s == nil {
		return TraceParent{}
	}
	return TraceParent{TraceID: s.trace, SpanID: s.id, Sampled: true}
}

// SetTrack assigns the span to a named exporter lane (a Perfetto
// thread). Spans without a track land on the "main" lane.
func (s *Span) SetTrack(track string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.track = track
	s.t.mu.Unlock()
}

// SetAttr appends one key/value annotation. Attributes keep insertion
// order, which the deterministic call sequence makes reproducible.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// SetAttrF formats a float attribute with %g, the canonical shortest
// round-trip form (stable across runs for equal values).
func (s *Span) SetAttrF(key string, v float64) {
	s.SetAttr(key, fmt.Sprintf("%g", v))
}

// End closes the span at the given simulated time. A second End is
// ignored; the first one wins.
func (s *Span) End(simS float64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.simEnd = simS
	s.wallEnd = s.t.now()
}

// SpanRecord is the exportable snapshot of one span.
type SpanRecord struct {
	ID          string  `json:"id"`
	Parent      string  `json:"parent,omitempty"`
	TraceID     string  `json:"trace,omitempty"`
	Name        string  `json:"name"`
	Track       string  `json:"track,omitempty"`
	SimStartS   float64 `json:"sim_start_s"`
	SimEndS     float64 `json:"sim_end_s"`
	WallStartNS int64   `json:"wall_start_ns,omitempty"`
	WallDurNS   int64   `json:"wall_dur_ns,omitempty"`
	Ended       bool    `json:"ended"`
	Attrs       []Attr  `json:"attrs,omitempty"`
}

// SimDurS returns the span's simulated duration in seconds.
func (r SpanRecord) SimDurS() float64 { return r.SimEndS - r.SimStartS }

// Attr returns the value of the first attribute with the given key, or
// "".
func (r SpanRecord) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Spans snapshots every span in start order. Unended spans report
// SimEndS == SimStartS and Ended == false. A nil tracer yields nil.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	for i, s := range t.spans {
		r := SpanRecord{
			ID:          s.id.String(),
			Parent:      s.parent.String(),
			TraceID:     s.trace.String(),
			Name:        s.name,
			Track:       s.track,
			SimStartS:   s.simStart,
			SimEndS:     s.simEnd,
			WallStartNS: s.wallStart.UnixNano(),
			Ended:       s.ended,
			Attrs:       append([]Attr(nil), s.attrs...),
		}
		if s.ended {
			r.WallDurNS = s.wallEnd.Sub(s.wallStart).Nanoseconds()
		}
		out[i] = r
	}
	return out
}

// Len returns the number of started spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
