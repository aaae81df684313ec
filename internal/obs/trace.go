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
// A Tracer keeps spans by local trace: a span opened by Start or
// StartRemote roots one, and StartChild spans join their root's. Every
// open trace is held whole. A trace whose root has ended enters a ring
// of the RecentTraces most recently completed ones, and eviction drops
// a whole trace, never an open one. The tail set, TailTraces in all,
// also holds traces marked by (*Span).Keep and the slowest few of each
// window of RecentTraces completions, so a burst of fast requests
// cannot push the interesting ones out. A long-lived server therefore
// retains at most (RecentTraces + TailTraces + open traces) × spans per
// trace, and Spans returns what is retained in start order.
//
// Traces export as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing), JSONL dumps, or a fixed-width text summary; see
// export.go and cmd/trace.
package obs

import (
	"cmp"
	"fmt"
	"slices"
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

// Retention sizes, in traces. A window of the slow sample is counted in
// completed traces, not wall time, so a run under a virtual clock
// retains the same traces every time.
const (
	// RecentTraces is the capacity of the ring of recently completed
	// traces, and the length of one slow-sample window.
	RecentTraces = 1024
	// TailTraces is the capacity of the tail set: the keptTraces most
	// recently Keep-marked traces, and the slowTraces slowest of the
	// current window and of the last one.
	TailTraces = keptTraces + 2*slowTraces

	slowTraces = 8
	keptTraces = 48
)

// Which retained sets hold a completed trace (Span.held, on its root).
const (
	heldRecent uint8 = 1 << iota
	heldKept
	heldSlow
)

// traceRing is a fixed-capacity ring of completed traces' roots: when
// it is full, each push evicts the oldest.
type traceRing struct {
	roots []*Span
	next  int // the oldest slot once the ring is full
	bit   uint8
}

func (r *traceRing) push(root *Span, capacity int) {
	root.held |= r.bit
	if len(r.roots) < capacity {
		r.roots = append(r.roots, root)
		return
	}
	r.roots[r.next].held &^= r.bit
	r.roots[r.next] = root
	r.next = (r.next + 1) % capacity
}

// Tracer collects spans, and retains them by trace as the package
// comment sets out. A nil *Tracer is a valid no-op: every method is
// nil-safe, so instrumented code needs no conditionals when tracing is
// off.
type Tracer struct {
	mu   sync.Mutex
	seed int64
	seq  uint64
	now  Clock

	open   []*Span // roots of open traces, in no order (Span.slot)
	recent traceRing
	kept   traceRing

	// The slow sample: the slowest roots of the current window, which
	// has seen windowN completions, and of the last one. slowMin indexes
	// the fastest entry of slow once slow is full.
	slow, lastSlow []*Span
	slowMin        int
	windowN        int
}

// NewTracer creates a tracer whose span IDs derive from the seed.
func NewTracer(seed int64) *Tracer {
	return &Tracer{seed: seed, now: time.Now, recent: traceRing{bit: heldRecent}, kept: traceRing{bit: heldKept}}
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
	root      *Span // the local root of the span's trace; itself on a root
	id        SpanID
	parent    SpanID
	trace     TraceID
	seq       uint64 // start order
	name      string
	track     string
	simStart  float64 // simulated seconds
	simEnd    float64
	wallStart time.Time
	wallEnd   time.Time
	attrs     []Attr

	// Root-only trace state, guarded by t.mu.
	members []*Span // the trace's other spans in start order; nil until it has one
	slot    int32   // index in t.open while the trace is open
	held    uint8   // the retained sets holding the completed trace
	keep    bool    // Keep was called on a span of the trace

	ended bool
}

// Start opens a root span at the given simulated time. The span roots a
// fresh trace whose ID derives from the span's own deterministic ID.
func (t *Tracer) Start(name string, simS float64) *Span {
	return t.start(nil, 0, TraceID{}, "", name, simS)
}

// StartChild opens a span under parent (nil parent makes a root span).
// The child inherits the parent's track until SetTrack overrides it,
// and the parent's trace identity always. It joins the parent's local
// trace when the parent is this tracer's; a parent from another tracer
// is a remote parent, as in StartRemote.
func (t *Tracer) StartChild(parent *Span, name string, simS float64) *Span {
	if parent == nil {
		return t.start(nil, 0, TraceID{}, "", name, simS)
	}
	var root *Span
	if parent.t == t {
		root = parent.root
	}
	return t.start(root, parent.id, parent.trace, parent.track, name, simS)
}

// StartRemote opens a span whose parent lives in another process, as
// carried by a traceparent header: the new span's parent link is the
// remote span ID and its trace identity is the propagated trace ID, so
// multi-process exports stitch into one tree (see cmd/trace -merge).
// The span roots a local trace.
func (t *Tracer) StartRemote(tp TraceParent, name string, simS float64) *Span {
	return t.start(nil, tp.SpanID, tp.TraceID, "", name, simS)
}

// start opens a span in root's local trace, or roots a new one when
// root is nil.
func (t *Tracer) start(root *Span, parent SpanID, trace TraceID, track, name string, simS float64) *Span {
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
		root:      root,
		id:        id,
		parent:    parent,
		trace:     trace,
		seq:       t.seq,
		name:      name,
		track:     track,
		simStart:  simS,
		simEnd:    simS,
		wallStart: t.now(),
	}
	t.seq++
	if root != nil {
		root.members = append(root.members, s)
	} else {
		s.root = s
		s.slot = int32(len(t.open))
		t.open = append(t.open, s)
	}
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
	if s.root == s {
		s.t.complete(s)
	}
}

// Keep marks the span's trace as worth keeping: once it completes it
// joins the tail set, where completions of unmarked traces cannot evict
// it. Keep on a trace that has already completed does nothing.
func (s *Span) Keep() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.root.keep = true
}

// complete moves an ended root's trace from the open set into the
// retained sets. Called with t.mu held.
func (t *Tracer) complete(root *Span) {
	last := len(t.open) - 1
	moved := t.open[last]
	t.open[root.slot], moved.slot = moved, root.slot
	t.open[last] = nil
	t.open = t.open[:last]

	t.recent.push(root, RecentTraces)
	if root.keep {
		t.kept.push(root, keptTraces)
	}
	t.sampleSlow(root)
}

// sampleSlow offers a completed root to the current window's slow
// sample, and closes the window after RecentTraces completions. Called
// with t.mu held.
func (t *Tracer) sampleSlow(root *Span) {
	switch {
	case len(t.slow) < slowTraces:
		root.held |= heldSlow
		t.slow = append(t.slow, root)
		if len(t.slow) == slowTraces {
			t.slowMin = fastest(t.slow)
		}
	case wallDur(root) > wallDur(t.slow[t.slowMin]):
		t.slow[t.slowMin].held &^= heldSlow
		root.held |= heldSlow
		t.slow[t.slowMin] = root
		t.slowMin = fastest(t.slow)
	}
	if t.windowN++; t.windowN == RecentTraces {
		for _, r := range t.lastSlow {
			r.held &^= heldSlow
		}
		clear(t.lastSlow)
		t.slow, t.lastSlow = t.lastSlow[:0], t.slow
		t.windowN = 0
	}
}

// fastest returns the index of the root with the shortest wall
// duration; the first on a tie.
func fastest(roots []*Span) int {
	best := 0
	for i, r := range roots {
		if wallDur(r) < wallDur(roots[best]) {
			best = i
		}
	}
	return best
}

func wallDur(s *Span) time.Duration { return s.wallEnd.Sub(s.wallStart) }

// retained calls visit once for the root of every retained trace: the
// open ones, then the completed ones in the sets that hold them.
// Called with t.mu held.
func (t *Tracer) retained(visit func(root *Span)) {
	for _, r := range t.open {
		visit(r)
	}
	for _, r := range t.recent.roots {
		visit(r)
	}
	for _, r := range t.kept.roots {
		if r.held&heldRecent == 0 {
			visit(r)
		}
	}
	for _, set := range [2][]*Span{t.slow, t.lastSlow} {
		for _, r := range set {
			if r.held&(heldRecent|heldKept) == 0 {
				visit(r)
			}
		}
	}
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

// Spans snapshots every retained span in start order: each open trace
// and each completed trace still in the ring of recent traces or the
// tail set, whole. Unended spans report SimEndS == SimStartS and Ended
// == false. A nil tracer yields nil.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var spans []*Span
	t.retained(func(root *Span) {
		spans = append(spans, root)
		spans = append(spans, root.members...)
	})
	slices.SortFunc(spans, func(a, b *Span) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]SpanRecord, len(spans))
	for i, s := range spans {
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

// Len returns the number of retained spans, len(Spans()).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	t.retained(func(root *Span) { n += 1 + len(root.members) })
	return n
}
