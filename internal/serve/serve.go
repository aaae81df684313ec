// Package serve is the planner-as-a-service layer: a stdlib-only HTTP
// service exposing the paper's decision procedure — "which cloud
// instances should run this hemodynamic campaign, at what cost?" — as a
// versioned JSON API under /v1.
//
// The paper's economics shape the architecture: calibration (system
// microbenchmarks, anatomy tuning) is expensive while model evaluation
// is microseconds, so the two phases live in two LRU caches — prepared
// anatomies keyed by workload, dashboard entries keyed by (system,
// seed, tier) — each with singleflight coalescing, and the prediction
// endpoints become hot, effectively stateless calls.
// Robustness is conventional service hygiene: per-request deadlines, a
// concurrency limiter that sheds load with 429 + Retry-After instead of
// queueing into timeout collapse, request body caps, and graceful
// shutdown that drains in-flight async campaigns. Every request opens
// an obs span and feeds the request/latency/cache metric families that
// GET /v1/metrics exports.
//
// Endpoints:
//
//	POST /v1/predict        single + batch model predictions
//	POST /v1/plan           cost-bounded instance recommendation
//	POST /v1/campaigns      async campaign submission (serial or fleet)
//	GET  /v1/campaigns/{id} campaign status and report
//	GET  /v1/healthz        liveness + cache occupancy
//	GET  /v1/metrics        metrics snapshot (text exposition or JSON)
//	GET  /v1/telemetry      mergeable telemetry snapshot for aggregation,
//	                        with heap, goroutine and GC-pause gauges
//
// Distributed tracing: every request that carries a traceparent header
// (injected by the cluster router) starts its handler span under that
// remote parent, so multi-process exports stitch into one tree; the
// span's trace ID echoes back in the X-Trace-Id response header.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/httpedge"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// Config shapes a Server. Zero fields take the documented defaults.
type Config struct {
	// Systems is the candidate instance catalog (default
	// machine.Catalog(), the paper's Table I systems).
	Systems []*machine.System

	// Samples controls microbenchmark averaging per characterization
	// point (default 5, matching the CLIs).
	Samples int

	// Table is the Tier 2 efficiency table. Nil loads the embedded
	// default (internal/perfmodel/tables); if that fails, Tier 2 is
	// simply unavailable and explicit tier2 requests answer 400.
	Table *perfmodel.Table

	// DefaultSeed seeds calibrations for requests that omit a seed.
	DefaultSeed int64

	// CacheEntries bounds each of the two LRUs — prepared anatomies and
	// dashboard entries (default 64).
	CacheEntries int

	// MaxInflight caps concurrently served planning requests; excess
	// requests are shed with 429 + Retry-After (default 64).
	MaxInflight int

	// MaxCampaigns caps concurrently running async campaigns; excess
	// submissions are shed with 429 (default 4).
	MaxCampaigns int

	// RequestTimeout is the per-request deadline ceiling (default 30s).
	// Requests may tighten it via timeout_ms but never exceed it.
	RequestTimeout time.Duration

	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64

	// Registry and Tracer are the observability sinks; nil values get
	// private instances (the tracer seeded from DefaultSeed).
	Registry *obs.Registry
	Tracer   *obs.Tracer
}

// Server is the planning service. Create with New, mount Handler, and
// Close on shutdown to drain async campaigns.
type Server struct {
	cfg     Config
	systems map[string]*machine.System

	anatomies *core.AnatomyCache
	entries   *cache.LRU[string, dashboard.Entry]
	sem       chan struct{}
	campaigns *campaignManager
	edge      *httpedge.Edge

	reg *obs.Registry
	mux *http.ServeMux

	// hookAfterAcquire, when set, runs on limited endpoints while the
	// inflight slot is held — a test seam for saturating the limiter
	// deterministically.
	hookAfterAcquire func()
}

// New builds a Server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.Systems == nil {
		cfg.Systems = machine.Catalog()
	}
	if len(cfg.Systems) == 0 {
		return nil, fmt.Errorf("serve: empty system catalog")
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 5
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxCampaigns <= 0 {
		cfg.MaxCampaigns = 4
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Table == nil {
		// Best effort: without a table the service still serves tiers
		// 0/1; explicit tier2 requests get perfmodel.ErrNoData → 400.
		if tbl, err := perfmodel.DefaultTable(); err == nil {
			cfg.Table = tbl
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(cfg.DefaultSeed)
	}
	s := &Server{
		cfg:       cfg,
		systems:   make(map[string]*machine.System, len(cfg.Systems)),
		anatomies: cache.New[core.AnatomyKey, *core.Anatomy](cfg.CacheEntries, lookupCounter(reg, "serve_anatomy_cache_total")),
		entries:   cache.New[string, dashboard.Entry](cfg.CacheEntries, lookupCounter(reg, "serve_cache_total")),
		sem:       make(chan struct{}, cfg.MaxInflight),
		edge:      httpedge.New(reg, tracer, "serve", "http ", httpedge.NewRetryJitter(cfg.DefaultSeed)),
		reg:       reg,
		mux:       http.NewServeMux(),
	}
	for _, sys := range cfg.Systems {
		if _, dup := s.systems[sys.Abbrev]; dup {
			return nil, fmt.Errorf("serve: duplicate system %q in catalog", sys.Abbrev)
		}
		s.systems[sys.Abbrev] = sys
	}
	s.campaigns = newCampaignManager(cfg.Systems, cfg.Samples, cfg.MaxCampaigns, reg, s.anatomies)
	s.routes()
	return s, nil
}

// lookupCounter registers the per-result counters of one cache under
// name and returns the observer that feeds them: every lookup counts,
// whichever code path makes it.
func lookupCounter(reg *obs.Registry, name string) func(cache.Result) {
	var counters [3]*obs.Counter
	for res, label := range [...]string{cache.Miss: "miss", cache.Hit: "hit", cache.Coalesced: "coalesced"} {
		counters[res] = reg.Counter(name, obs.L("result", label))
	}
	return func(res cache.Result) { counters[res].Inc() }
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains in-flight async campaigns. Under a live ctx it waits for
// them to finish; once ctx expires it interrupts the remaining runs at
// their next clean point and waits for that.
func (s *Server) Close(ctx context.Context) error {
	return s.campaigns.drain(ctx)
}

// resolve maps a request's system names to catalog entries — none named
// means the whole catalog, in its order — or a 404 apiError naming the
// first unknown one, before any cache is touched, so a request for an
// unknown system never pays for a build.
func (s *Server) resolve(names []string) ([]*machine.System, error) {
	if len(names) == 0 {
		return s.cfg.Systems, nil
	}
	out := make([]*machine.System, len(names))
	for i, name := range names {
		sys, ok := s.systems[name]
		if !ok {
			return nil, &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("system %q not in catalog", name)}
		}
		out[i] = sys
	}
	return out, nil
}

func (s *Server) routes() {
	planning := func(endpoint string, h http.HandlerFunc) http.HandlerFunc {
		return s.edge.Route(endpoint, s.limited(endpoint, h))
	}
	s.mux.HandleFunc("GET /v1/healthz", s.edge.Route("/v1/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /v1/metrics", s.edge.Route("/v1/metrics", s.edge.Metrics))
	s.mux.HandleFunc("GET /v1/telemetry", s.edge.Route("/v1/telemetry", s.handleTelemetry))
	s.mux.HandleFunc("POST /v1/predict", planning("/v1/predict", s.handlePredict))
	s.mux.HandleFunc("POST /v1/plan", planning("/v1/plan", s.handlePlan))
	s.mux.HandleFunc("POST /v1/campaigns", planning("/v1/campaigns", s.handleCampaignSubmit))
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.edge.Route("/v1/campaigns/status", s.handleCampaignStatus))
}

// limited is the planning endpoints' wrapper inside the shared edge:
// the load-shedding concurrency limiter, the body cap, and the
// per-request deadline ceiling. The inflight gauge is resolved on the
// first admitted request and then reused.
func (s *Server) limited(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	var (
		once     sync.Once
		inflight *obs.Gauge
	)
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.reg.Counter("serve_shed_total", obs.L("endpoint", endpoint)).Inc()
			httpedge.WriteError(w, http.StatusTooManyRequests, "server saturated; retry after backoff")
			return
		}
		if s.hookAfterAcquire != nil {
			s.hookAfterAcquire()
		}
		once.Do(func() { inflight = s.reg.Gauge("serve_inflight") })
		inflight.Add(1)
		defer inflight.Add(-1)

		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// apiError is an error with a fixed HTTP status.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// statusFor maps an error to its response status: apiError's own
// status, 504 for a request that outran its deadline, 503 for one
// cancelled by shutdown, 500 otherwise.
func statusFor(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, perfmodel.ErrNoData):
		// An explicit tier the server has no data for is a client-side
		// request problem, not a server fault.
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeErr(w http.ResponseWriter, err error) {
	httpedge.WriteError(w, statusFor(err), err.Error())
}

// decodeJSON parses a request body strictly (unknown fields rejected)
// and runs the request's own validate method when it has one, answering
// 400 on malformed or invalid input and 413 past the body cap.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpedge.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		httpedge.WriteError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	if req, ok := v.(interface{ validate() error }); ok {
		if err := req.validate(); err != nil {
			httpedge.WriteError(w, http.StatusBadRequest, err.Error())
			return false
		}
	}
	return true
}

// withTimeoutMS tightens ctx by a request's timeout_ms field. The
// server ceiling already bounds ctx, so this can only shorten; a value
// too large for a time.Duration inherits the ceiling rather than
// overflowing into an already-passed deadline.
func withTimeoutMS(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	if timeoutMS <= 0 || timeoutMS > math.MaxInt64/int64(time.Millisecond) {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpedge.WriteJSON(w, http.StatusOK, HealthResponse{
		Status:       "ok",
		UptimeS:      s.edge.Now(),
		CacheEntries: s.entries.Len(),
		Anatomies:    s.anatomies.Len(),
		Campaigns:    s.campaigns.running(),
	})
}

// handleTelemetry serves the raw mergeable metric state — counter sums
// and histogram buckets, never quantiles — that the cluster router
// scrapes and folds into fleet-wide aggregates (obs.MergeMetrics),
// plus the Go runtime's gauges (obs.RuntimeMetrics), read for this
// request.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	metrics, err := obs.MergeMetrics(s.reg.Snapshot(), obs.RuntimeMetrics())
	if err != nil {
		writeErr(w, err)
		return
	}
	httpedge.WriteJSON(w, http.StatusOK, obs.TelemetrySnapshot{UptimeS: s.edge.Now(), Metrics: metrics})
}

//lint:hot
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel := withTimeoutMS(r.Context(), req.TimeoutMS)
	defer cancel()

	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.DefaultSeed
	}
	model := req.Model
	if model == "" {
		model = "generalized"
	}
	tier := normalizeTier(req.Tier)

	systems, err := s.resolve(req.Systems)
	if err == nil {
		err = checkBatch(len(systems), len(req.Ranks))
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	var decomposed []int // only the direct model decomposes, once per rank count
	if model == perfmodel.ModelDirect {
		decomposed = req.Ranks
	}
	a, err := s.anatomyFor(ctx, req.Workload, decomposed...)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The reply is appended row by row into one pooled buffer (encode.go)
	// and written once; an error on the way discards it.
	bp := replyBuffers.Get().(*[]byte)
	defer replyBuffers.Put(bp)
	b := (*bp)[:0]
	if need := len(systems)*len(req.Ranks)*rowBytes + 128; cap(b) < need {
		b = make([]byte, 0, need)
	}
	b = append(b, `{"predictions":[`...)
	var rows, hits, misses, coalesced int
	for _, sys := range systems {
		e, res, err := s.entryFor(ctx, sys, seed, tier)
		if err != nil {
			writeErr(w, err)
			return
		}
		switch res {
		case cache.Hit:
			hits++
		case cache.Miss:
			misses++
		case cache.Coalesced:
			coalesced++
		}
		for _, ranks := range req.Ranks {
			pred, err := predict(a, e, model, tier, ranks, req.Occupancy)
			if err == nil {
				if rows > 0 {
					b = append(b, ',')
				}
				b, err = appendPrediction(b, &pred)
				rows++
			}
			if err != nil {
				writeErr(w, err)
				return
			}
		}
	}
	b = append(b, `],"cache_hits":`...)
	b = strconv.AppendInt(b, int64(hits), 10)
	b = append(b, `,"cache_misses":`...)
	b = strconv.AppendInt(b, int64(misses), 10)
	b = append(b, `,"cache_coalesced":`...)
	b = strconv.AppendInt(b, int64(coalesced), 10)
	b = append(b, "}\n"...)
	*bp = b
	httpedge.WriteJSONBytes(w, http.StatusOK, b)
}

// replyBuffers recycles /v1/predict reply buffers: a 512-rank batch's
// reply is about 170 KB.
var replyBuffers = sync.Pool{New: func() any { return new([]byte) }}
