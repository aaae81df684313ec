package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/httpedge"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// Router is the cluster's HTTP front end. It owns no model state: every
// planning request is admitted (per-tenant token bucket, global
// in-flight cap), assigned a shard key, and forwarded to the replica
// the ring places that key on. Replica-level flow control passes
// through untouched — a 429 shed or 503 drain from a replica reaches
// the client exactly as the replica wrote it — while transport-level
// failures (dead process, closed listener) are retried exactly once on
// the key's ring successor, the same replica the ring converges to once
// health marks the owner dead.
type Router struct {
	cfg    Config
	ring   *Ring
	set    *replicaSet
	admit  *admission
	edge   *httpedge.Edge
	poller *poller

	reg    *obs.Registry
	tracer *obs.Tracer
	mux    *http.ServeMux
}

func newRouter(cfg Config, ring *Ring, set *replicaSet, poll *poller, reg *obs.Registry, tracer *obs.Tracer) *Router {
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		set:    set,
		admit:  newAdmission(cfg.TenantRate, cfg.TenantBurst, cfg.MaxInflight, reg),
		edge:   httpedge.New(reg, tracer, "cluster", "router ", httpedge.NewRetryJitter(cfg.Seed)),
		poller: poll,
		reg:    reg,
		tracer: tracer,
		mux:    http.NewServeMux(),
	}
	rt.mux.HandleFunc("GET /v1/healthz", rt.edge.Route("/v1/healthz", rt.handleHealthz))
	rt.mux.HandleFunc("GET /v1/metrics", rt.edge.Route("/v1/metrics", rt.edge.Metrics))
	rt.mux.HandleFunc("GET /v1/cluster", rt.edge.Route("/v1/cluster", rt.handleTopology))
	rt.mux.HandleFunc("GET /v1/cluster/telemetry", rt.edge.Route("/v1/cluster/telemetry", rt.handleTelemetry))
	rt.mux.HandleFunc("POST /v1/cluster/drain", rt.edge.Route("/v1/cluster/drain", rt.handleDrain))
	rt.mux.HandleFunc("POST /v1/predict", rt.edge.Route("/v1/predict", rt.planning("/v1/predict")))
	rt.mux.HandleFunc("POST /v1/plan", rt.edge.Route("/v1/plan", rt.planning("/v1/plan")))
	rt.mux.HandleFunc("POST /v1/campaigns", rt.edge.Route("/v1/campaigns", rt.handleCampaignSubmit))
	rt.mux.HandleFunc("GET /v1/campaigns/{id}", rt.edge.Route("/v1/campaigns/status", rt.handleCampaignStatus))
	return rt
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// shardProbe is the lenient view of a planning request body: just the
// fields that form the calibration identity. Lenient on purpose — the
// replica owns validation; the router only needs a stable key.
type shardProbe struct {
	Workload struct {
		Geometry string  `json:"geometry"`
		Scale    float64 `json:"scale"`
	} `json:"workload"`
	Systems []string `json:"systems"`
	Seed    int64    `json:"seed"`
	Tier    string   `json:"tier"`
}

// shardKey derives the routing key from a planning request body. For a
// single-system request it mirrors serve's calibration cache key
// "system|geometry@scale|seed|tier" exactly (an omitted tier normalizes
// to the calibrated default, as serve does), so each replica's LRU owns
// a disjoint key range. Multi-system (or whole-catalog) requests
// collapse the system part to "*": the workload's catalog-wide
// calibration set lands on one replica together, which is what lets its
// plan handler reuse them across the sweep. Undecodable bodies hash as
// raw bytes — any replica can answer 400.
func (rt *Router) shardKey(body []byte) string {
	var p shardProbe
	if err := json.Unmarshal(body, &p); err != nil || p.Workload.Geometry == "" {
		return string(body)
	}
	system := "*"
	if len(p.Systems) == 1 {
		system = p.Systems[0]
	}
	seed := p.Seed
	if seed == 0 {
		seed = rt.cfg.DefaultSeed
	}
	tier := p.Tier
	if tier == "" {
		tier = perfmodel.Tier1Calibrated
	}
	return fmt.Sprintf("%s|%s@%g|%d|%s", system, p.Workload.Geometry, p.Workload.Scale, seed, tier)
}

// planning returns the sharded forwarding handler for one planning
// endpoint: admit, derive the shard key, forward to the owner with one
// ring-successor retry.
func (rt *Router) planning(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !rt.admitPlanning(w, r) {
			return
		}
		defer rt.admit.release()
		body, ok := rt.readBody(w, r)
		if !ok {
			return
		}
		rt.forwardSharded(w, r, path, rt.shardKey(body), body)
	}
}

// admitPlanning runs admission control; on a shed it writes the 429 and
// reports false. The in-flight slot is held on true returns.
func (rt *Router) admitPlanning(w http.ResponseWriter, r *http.Request) bool {
	if !rt.admit.admitTenant(r.Header.Get("X-Tenant")) {
		httpedge.WriteError(w, http.StatusTooManyRequests, "tenant quota exhausted; retry after backoff")
		return false
	}
	if !rt.admit.acquire() {
		httpedge.WriteError(w, http.StatusTooManyRequests, "router saturated; retry after backoff")
		return false
	}
	return true
}

// readBody slurps the request body under the configured cap so it can
// be probed for a shard key and re-sent on retry.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBodyBytes+1))
	if err != nil {
		httpedge.WriteError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return nil, false
	}
	if int64(len(body)) > rt.cfg.MaxBodyBytes {
		httpedge.WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxBodyBytes))
		return nil, false
	}
	return body, true
}

// forwardSharded sends the request to the shard key's owner; a
// transport-level failure advances once around the ring to the key's
// successor. HTTP-level responses — including 429 shed and 503 drain —
// are never retried: replica flow control must reach the client.
func (rt *Router) forwardSharded(w http.ResponseWriter, r *http.Request, path, key string, body []byte) {
	targets := rt.ring.Successors(key, 2)
	if len(targets) == 0 {
		httpedge.WriteError(w, http.StatusServiceUnavailable, "no healthy replicas in ring")
		return
	}
	for i, name := range targets {
		resp, err := rt.forwardOnce(r, name, path, r.URL.RawQuery, body)
		if err == nil {
			rt.relay(w, resp, name)
			return
		}
		rt.set.reportFailure(name, rt.cfg.HealthFailures)
		if i == 0 && len(targets) > 1 {
			rt.reg.Counter("cluster_retry_total", obs.L("endpoint", path)).Inc()
			continue
		}
		httpedge.WriteError(w, http.StatusBadGateway,
			fmt.Sprintf("replica %s unreachable: %v", name, err))
		return
	}
}

// forwardOnce issues the upstream request to one replica, under a span.
func (rt *Router) forwardOnce(r *http.Request, name, path, rawQuery string, body []byte) (*http.Response, error) {
	rep, ok := rt.set.get(name)
	if !ok {
		return nil, fmt.Errorf("replica %q not configured", name)
	}
	// The forward span hangs under the request's router span (stashed
	// in the context by the edge), so the replica's handler span —
	// parented on this one via the injected traceparent — completes the
	// router → forward → handler chain in the stitched trace.
	sp := rt.tracer.StartChild(obs.SpanFromContext(r.Context()), "forward "+name, rt.edge.Now())
	sp.SetAttr("replica", name)
	sp.SetAttr("path", path)
	defer sp.End(rt.edge.Now())

	url := rep.BaseURL + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, reader)
	if err != nil {
		return nil, err
	}
	copyForwardHeaders(req.Header, r.Header)
	if tp := sp.TraceParent(); tp.Valid() {
		req.Header.Set(obs.TraceParentHeader, tp.String())
	}
	resp, err := rep.Transport.RoundTrip(req)
	code := "error"
	if err == nil {
		code = strconv.Itoa(resp.StatusCode)
	}
	sp.SetAttr("code", code)
	rt.reg.Counter("cluster_forward_total", obs.L("replica", name), obs.L("code", code)).Inc()
	return resp, err
}

// copyForwardHeaders propagates the handful of headers that matter
// upstream; hop-by-hop headers stay at the router.
func copyForwardHeaders(dst, src http.Header) {
	for _, k := range []string{"Content-Type", "Accept", "X-Tenant", "X-Request-Id"} {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
}

// relay copies a replica response to the client verbatim, adding the
// serving replica's name so clients and benchmarks can attribute work.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, replica string) {
	for k, vs := range resp.Header {
		if k == "X-Trace-Id" {
			// The router already stamped the trace ID (the same one the
			// replica echoes — context propagated); Add would duplicate.
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Replica", replica)
	w.WriteHeader(resp.StatusCode)
	_, copyErr := io.Copy(w, resp.Body)
	cerr := resp.Body.Close()
	if copyErr != nil || cerr != nil {
		// Client disconnect or upstream truncation mid-relay: the status
		// line is already written, so there is nothing left to signal.
		return
	}
}

// handleCampaignSubmit routes an async campaign submission. Campaigns
// are not calibration-key work, so placement hashes the raw config —
// deterministic, and spread across the fleet. The accepted ID is
// rewritten to "replica.id" so status polls route back to the replica
// that owns the record.
func (rt *Router) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	if !rt.admitPlanning(w, r) {
		return
	}
	defer rt.admit.release()
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	key := "campaign|" + string(body)
	targets := rt.ring.Successors(key, 2)
	if len(targets) == 0 {
		httpedge.WriteError(w, http.StatusServiceUnavailable, "no healthy replicas in ring")
		return
	}
	for i, name := range targets {
		resp, err := rt.forwardOnce(r, name, "/v1/campaigns", "", body)
		if err != nil {
			rt.set.reportFailure(name, rt.cfg.HealthFailures)
			if i == 0 && len(targets) > 1 {
				rt.reg.Counter("cluster_retry_total", obs.L("endpoint", "/v1/campaigns")).Inc()
				continue
			}
			httpedge.WriteError(w, http.StatusBadGateway,
				fmt.Sprintf("replica %s unreachable: %v", name, err))
			return
		}
		rt.relayCampaignAck(w, resp, name)
		return
	}
}

// relayCampaignAck rewrites a 202 ack's ID to carry the owning replica;
// every other status relays verbatim.
func (rt *Router) relayCampaignAck(w http.ResponseWriter, resp *http.Response, replica string) {
	if resp.StatusCode != http.StatusAccepted {
		rt.relay(w, resp, replica)
		return
	}
	var ack struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	err := json.NewDecoder(resp.Body).Decode(&ack)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		httpedge.WriteError(w, http.StatusBadGateway, "malformed ack from replica "+replica)
		return
	}
	id := replica + "." + ack.ID
	w.Header().Set("X-Replica", replica)
	httpedge.WriteJSON(w, http.StatusAccepted, map[string]string{
		"id":  id,
		"url": "/v1/campaigns/" + id,
	})
}

// handleCampaignStatus routes "replica.id" status polls back to the
// owning replica — including draining replicas, which by design keep
// answering for work they already accepted. No ring, no retry: only the
// owner holds the record.
func (rt *Router) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	name, localID, ok := strings.Cut(id, ".")
	if !ok {
		httpedge.WriteError(w, http.StatusNotFound,
			fmt.Sprintf("campaign %q not found (cluster IDs are replica.id)", id))
		return
	}
	if _, exists := rt.set.get(name); !exists {
		httpedge.WriteError(w, http.StatusNotFound, fmt.Sprintf("campaign %q names unknown replica %q", id, name))
		return
	}
	resp, err := rt.forwardOnce(r, name, "/v1/campaigns/"+localID, "", nil)
	if err != nil {
		rt.set.reportFailure(name, rt.cfg.HealthFailures)
		httpedge.WriteError(w, http.StatusBadGateway,
			fmt.Sprintf("replica %s unreachable: %v", name, err))
		return
	}
	rt.relay(w, resp, name)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reps := rt.set.snapshot()
	healthy := 0
	for _, rep := range reps {
		if rep.State == StateHealthy.String() {
			healthy++
		}
	}
	status := "ok"
	code := http.StatusOK
	if healthy == 0 {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	httpedge.WriteJSON(w, code, RouterHealthResponse{
		Status: status, Healthy: healthy, Total: len(reps), Replicas: reps,
	})
}

// handleTelemetry serves the fleet-wide aggregated telemetry view.
// With no background poll loop configured (or ?refresh=1) it polls on
// demand, so the endpoint always answers with live data; otherwise it
// returns the loop's last published aggregate. An on-demand poll feeds
// health exactly as a loop tick does, and concurrent ones share a single
// sweep. ?format=prom renders the merged
// metrics as a Prometheus text exposition page.
func (rt *Router) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	snap := rt.poller.Last()
	if snap == nil || rt.cfg.HealthInterval <= 0 || r.URL.Query().Get("refresh") == "1" {
		snap = rt.poller.poll(r.Context())
	}
	if snap == nil {
		httpedge.WriteError(w, http.StatusServiceUnavailable, "telemetry aggregation unavailable")
		return
	}
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := obs.WriteMetricsText(w, snap.Metrics); err != nil {
			return // mid-stream failure; status line already written
		}
		return
	}
	httpedge.WriteJSON(w, http.StatusOK, snap)
}

// handleTopology reports membership plus each member's share of a
// sampled keyspace, so balance is observable without a benchmark.
func (rt *Router) handleTopology(w http.ResponseWriter, r *http.Request) {
	const samples = 4096
	share := make(map[string]float64)
	if rt.ring.Len() > 0 {
		for i := 0; i < samples; i++ {
			share[rt.ring.Owner(fmt.Sprintf("sample-key-%d", i))]++
		}
		for k := range share {
			share[k] /= samples
		}
	}
	httpedge.WriteJSON(w, http.StatusOK, TopologyResponse{
		Replicas:    rt.set.snapshot(),
		RingMembers: rt.ring.Members(),
		Vnodes:      rt.cfg.VirtualNodes,
		Seed:        rt.cfg.Seed,
		KeyShare:    share,
	})
}

// handleDrain transitions ?replica=<name> into (or with ?undrain=1 out
// of) the draining state: its arcs rebalance away immediately while it
// keeps serving what it owns.
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("replica")
	if name == "" {
		httpedge.WriteError(w, http.StatusBadRequest, "replica query parameter is required")
		return
	}
	to := StateDraining
	if r.URL.Query().Get("undrain") == "1" {
		to = StateHealthy
	}
	if !rt.set.setState(name, to) {
		httpedge.WriteError(w, http.StatusNotFound, fmt.Sprintf("replica %q not configured", name))
		return
	}
	httpedge.WriteJSON(w, http.StatusOK, DrainResponse{Replica: name, State: to.String()})
}
