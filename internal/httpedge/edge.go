// Package httpedge is the one HTTP edge the planning service
// (internal/serve) and the cluster router (internal/cluster) share: the
// per-route wrapper that opens the request span, echoes X-Trace-Id,
// counts the request and times it; the JSON reply writers; and the
// seeded Retry-After jitter every 429 carries. The two callers differ
// only in the metric family prefix and the span name prefix they pass
// to New, so router traces and replica traces read the same way.
package httpedge

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// latencyBuckets spans 50µs to ~1.6ks geometrically — fine enough for a
// p99 on a sub-millisecond cache-warm path.
var latencyBuckets = obs.ExpBuckets(50e-6, 2, 25)

// Edge wraps a mux's routes. Metrics go to
// <prefix>_requests_total{endpoint,code} and
// <prefix>_latency_seconds{endpoint}; spans are named
// <span prefix><endpoint> on a timeline of seconds since New.
type Edge struct {
	reg          *obs.Registry
	tracer       *obs.Tracer
	metricPrefix string
	spanPrefix   string
	jitter       *RetryJitter
	start        time.Time
}

// New builds an edge over the given sinks. jitter deals the Retry-After
// of every 429 that leaves the edge without one.
func New(reg *obs.Registry, tracer *obs.Tracer, metricPrefix, spanPrefix string, jitter *RetryJitter) *Edge {
	return &Edge{reg: reg, tracer: tracer, metricPrefix: metricPrefix, spanPrefix: spanPrefix, jitter: jitter, start: time.Now()}
}

// Now is the span timeline: seconds of uptime.
func (e *Edge) Now() float64 { return time.Since(e.start).Seconds() }

// route holds one endpoint's instruments, resolved from the registry on
// first use and then reused: a registry lookup sorts labels, builds a
// key string and takes the registry-wide lock, which is too much to pay
// on every request. Resolving on first use rather than when the route
// is built keeps never-hit endpoints and never-seen codes out of
// /v1/metrics.
type route struct {
	mu      sync.Mutex
	latency *obs.Histogram
	byCode  map[int]codeInstruments
}

type codeInstruments struct {
	label    string // the code in decimal, for the span attribute
	requests *obs.Counter
}

func (e *Edge) instruments(rt *route, endpoint string, code int) (codeInstruments, *obs.Histogram) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ci, ok := rt.byCode[code]
	if !ok {
		label := strconv.Itoa(code)
		ci = codeInstruments{label: label, requests: e.reg.Counter(e.metricPrefix+"_requests_total",
			obs.L("endpoint", endpoint), obs.L("code", label))}
		if rt.byCode == nil {
			rt.byCode = make(map[int]codeInstruments)
			rt.latency = e.reg.Histogram(e.metricPrefix+"_latency_seconds", latencyBuckets, obs.L("endpoint", endpoint))
		}
		rt.byCode[code] = ci
	}
	return ci, rt.latency
}

// Route wraps a handler with the span and the request/latency metrics.
// A valid traceparent header makes the span a child of the remote span
// — one stitched tree per client request; the span's trace ID echoes
// back in X-Trace-Id and the span rides the request context. A reply
// of 500 or above (a deadline hit answers 504) or a 429 marks its trace
// to keep (obs.Span.Keep), so the tracer's tail set holds it past any
// number of fast successes.
func (e *Edge) Route(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	name := e.spanPrefix + endpoint
	rt := &route{}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, jitter: e.jitter}
		start := time.Now()
		sp := e.startSpan(r, name)
		if tid := sp.TraceID(); !tid.IsZero() {
			sw.Header().Set("X-Trace-Id", tid.String())
		}
		r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		defer func() {
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			ci, latency := e.instruments(rt, endpoint, code)
			sp.SetAttr("code", ci.label)
			if code >= http.StatusInternalServerError || code == http.StatusTooManyRequests {
				sp.Keep()
			}
			sp.End(e.Now())
			ci.requests.Inc()
			latency.Observe(time.Since(start).Seconds())
		}()
		h(sw, r)
	}
}

// Metrics serves the registry: the Prometheus text exposition, or the
// JSON snapshot under ?format=json.
func (e *Edge) Metrics(w http.ResponseWriter, r *http.Request) {
	snap := e.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		WriteJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := obs.WriteMetricsText(w, snap); err != nil {
		return // mid-stream failure; the status line is already written
	}
}

// startSpan opens the request's span under a valid traceparent header;
// anything else, malformed headers included, falls back to a fresh
// local root, so junk from the network can't break a request.
func (e *Edge) startSpan(r *http.Request, name string) *obs.Span {
	if v := r.Header.Get(obs.TraceParentHeader); v != "" {
		if tp, err := obs.ParseTraceParent(v); err == nil {
			return e.tracer.StartRemote(tp, name, e.Now())
		}
	}
	return e.tracer.Start(name, e.Now())
}

// statusWriter records the response code for the metrics and the span,
// and gives every 429 that has no Retry-After yet the edge's jittered
// one just before the header flushes. A 429 relayed from upstream keeps
// the upstream's value and leaves the jitter stream untouched.
type statusWriter struct {
	http.ResponseWriter
	code   int
	jitter *RetryJitter
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
		if code == http.StatusTooManyRequests && w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", strconv.Itoa(w.jitter.Next()))
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// WriteJSON writes v as the JSON body of a reply with the given status.
// v is encoded before anything is written, so a value encoding/json
// refuses (a NaN or ±Inf float) becomes a 500 with an ErrorResponse
// body instead of the caller's status with an empty one.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		// An ErrorResponse always encodes.
		_ = json.NewEncoder(&buf).Encode(ErrorResponse{Error: "encoding the reply: " + err.Error()})
	}
	WriteJSONBytes(w, status, buf.Bytes())
}

// WriteJSONBytes writes body, already-encoded JSON, as the reply with the
// given status and its Content-Length.
func WriteJSONBytes(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// Headers are gone; the route's instrumented status already
		// recorded the reply.
		return
	}
}

// ErrorResponse is the uniform error body for every non-2xx status.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteError writes the uniform error body.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg})
}

// retrySpreadS is the widest Retry-After a RetryJitter deals, in seconds.
const retrySpreadS = 3

// RetryJitter deals deterministic Retry-After backoffs in [1,
// retrySpreadS] seconds from a seeded SplitMix64 stream. Shedding a
// fleet of clients with one constant backoff synchronizes their retries
// into a thundering herd one second later; per-process seeded jitter
// de-phases them while keeping test runs reproducible.
type RetryJitter struct {
	mu    sync.Mutex
	state uint64
}

// NewRetryJitter seeds a stream.
func NewRetryJitter(seed int64) *RetryJitter {
	return &RetryJitter{state: uint64(seed)}
}

// Next returns the following backoff in whole seconds, 1..retrySpreadS.
func (j *RetryJitter) Next() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state += 0x9e3779b97f4a7c15
	return int(obs.Mix64(j.state)%retrySpreadS) + 1
}
