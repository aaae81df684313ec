package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Spans of one operation share Trace;
// Parent is the span that caused this one (0 for an operation's root).
// Replay marks a ladder rung: a layer re-run on the operation's inputs
// after the fact, not time the operation itself spent.
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Replay  bool   `json:"replay,omitempty"`
}

// recorder keeps the benchmark's own spans in memory until the run ends.
// A nil *recorder is tracing switched off: begin returns a handle whose
// end does nothing, so a workload's code is the same traced and untraced.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// handle names an open span of its recorder.
type handle struct {
	r   *recorder
	idx int
}

// begin opens a span under parent; the zero handle starts a new trace.
func (r *recorder) begin(parent handle, name string) handle {
	if r == nil {
		return handle{}
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := uint64(len(r.spans) + 1)
	s := span{Trace: id, ID: id, Name: name, StartNS: now, EndNS: now}
	if parent.r != nil {
		p := r.spans[parent.idx]
		s.Trace, s.Parent = p.Trace, p.ID
	}
	r.spans = append(r.spans, s)
	return handle{r: r, idx: len(r.spans) - 1}
}

func (h handle) end() {
	if h.r == nil {
		return
	}
	now := time.Since(h.r.t0).Nanoseconds()
	h.r.mu.Lock()
	h.r.spans[h.idx].EndNS = now
	h.r.mu.Unlock()
}

// rung is one measured layer of a ladder.
type rung struct {
	name string
	dur  time.Duration
}

// replay records measured rungs as replay spans under parent, an open span
// of r, starting now. The first rung is the outer span. With nested set,
// each further rung is the child of the one before it (a call chain:
// loopback holds handler holds predict); otherwise the further rungs are
// laid end to end inside the first (stages of one build). Either way the
// generic self-time rule then yields each layer's own share.
func (r *recorder) replay(parent handle, nested bool, rungs []rung) {
	if r == nil || len(rungs) == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	trace := r.spans[parent.idx].Trace
	add := func(parentID uint64, g rung, start int64) uint64 {
		id := uint64(len(r.spans) + 1)
		r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parentID, Name: g.name,
			StartNS: start, EndNS: start + g.dur.Nanoseconds(), Replay: true})
		return id
	}
	outer := add(r.spans[parent.idx].ID, rungs[0], now)
	at := now
	for _, g := range rungs[1:] {
		id := add(outer, g, at)
		if nested {
			outer = id
		} else {
			at += g.dur.Nanoseconds()
		}
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once and children are clipped to the parent's interval.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.EndNS - s.StartNS - covered
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
