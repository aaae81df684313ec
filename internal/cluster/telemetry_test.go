package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// tracedServeCluster builds n serve replicas with individually seeded
// tracers and registries behind a router with its own seeded tracer —
// the full distributed-tracing topology, deterministic end to end.
func tracedServeCluster(t *testing.T, n int) (*Cluster, *obs.Tracer, []*obs.Tracer, string) {
	t.Helper()
	replicaTracers := make([]*obs.Tracer, n)
	replicas := make([]Replica, n)
	for i := range replicas {
		// Distinct tracer seeds per process: span IDs derive from
		// (seed, seq), so sharing a seed across processes would collide
		// IDs in the merged trace.
		replicaTracers[i] = obs.NewTracer(int64(101 + i))
		srv, err := serve.New(serve.Config{Samples: 1, DefaultSeed: 7, Tracer: replicaTracers[i]})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("r%d", i)
		replicas[i] = Replica{Name: name, BaseURL: "http://" + name, Transport: NewHandlerTransport(srv.Handler())}
	}
	routerTracer := obs.NewTracer(11)
	c, err := New(Config{Replicas: replicas, Seed: 11, DefaultSeed: 7, Tracer: routerTracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ts := httptest.NewServer(c.Router().Handler())
	t.Cleanup(ts.Close)
	return c, routerTracer, replicaTracers, ts.URL
}

// TestStitchedTraceParentChain is the propagation contract: one client
// request through the router yields one trace in which the router span
// parents the forward span and the forward span parents the replica's
// handler span — asserted programmatically on the merged records.
func TestStitchedTraceParentChain(t *testing.T) {
	_, routerTracer, replicaTracers, url := tracedServeCluster(t, 3)

	resp, data := doPost(t, url+"/v1/predict", predictBodyFor(1), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("response missing X-Trace-Id")
	}
	if got := resp.Header.Values("X-Trace-Id"); len(got) != 1 {
		t.Fatalf("X-Trace-Id duplicated across relay: %v", got)
	}

	merged := routerTracer.Spans()
	for _, tr := range replicaTracers {
		merged = append(merged, tr.Spans()...)
	}
	byName := func(prefix string) (obs.SpanRecord, bool) {
		for _, s := range merged {
			if strings.HasPrefix(s.Name, prefix) {
				return s, true
			}
		}
		return obs.SpanRecord{}, false
	}
	router, ok := byName("router /v1/predict")
	if !ok {
		t.Fatalf("no router span in %d merged spans", len(merged))
	}
	forward, ok := byName("forward ")
	if !ok {
		t.Fatal("no forward span")
	}
	handler, ok := byName("http /v1/predict")
	if !ok {
		t.Fatal("no replica handler span")
	}
	if forward.Parent != router.ID {
		t.Errorf("forward parent %q, want router span %q", forward.Parent, router.ID)
	}
	if handler.Parent != forward.ID {
		t.Errorf("handler parent %q, want forward span %q", handler.Parent, forward.ID)
	}
	for _, s := range []obs.SpanRecord{router, forward, handler} {
		if s.TraceID != router.TraceID {
			t.Errorf("span %q trace %q, want %q (one trace per request)", s.Name, s.TraceID, router.TraceID)
		}
	}
	if got := resp.Header.Get("X-Trace-Id"); got != router.TraceID {
		t.Errorf("X-Trace-Id %q, want %q", got, router.TraceID)
	}
}

// TestStitchedTraceByteIdentical runs the same-seed scenario twice and
// requires the rendered span trees to match byte for byte — the
// reproducibility contract extended across process boundaries.
func TestStitchedTraceByteIdentical(t *testing.T) {
	run := func() string {
		_, routerTracer, replicaTracers, url := tracedServeCluster(t, 3)
		for seed := 1; seed <= 3; seed++ {
			resp, data := doPost(t, url+"/v1/predict", predictBodyFor(seed), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("predict seed %d: %d (%s)", seed, resp.StatusCode, data)
			}
		}
		merged := routerTracer.Spans()
		for _, tr := range replicaTracers {
			merged = append(merged, tr.Spans()...)
		}
		return obs.RenderSpanTree(merged)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed stitched traces differ:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if strings.Count(a, "trace ") != 3 {
		t.Fatalf("want 3 stitched traces (one per request), got:\n%s", a)
	}
}

// TestClusterTelemetryAggregation drives traffic through the fleet and
// checks the merged view: fleet-wide counters equal the sum over
// replicas, histogram counts add, all sources merge, RED populates.
func TestClusterTelemetryAggregation(t *testing.T) {
	c, _, _, url := tracedServeCluster(t, 3)

	const requests = 8
	for seed := 1; seed <= requests; seed++ {
		resp, data := doPost(t, url+"/v1/predict", predictBodyFor(seed), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict seed %d: %d (%s)", seed, resp.StatusCode, data)
		}
	}

	snap := c.PollNow()
	if snap == nil {
		t.Fatal("poll returned nil")
	}
	if len(snap.Sources) != 4 { // 3 replicas + the router itself
		t.Fatalf("sources %+v, want 4", snap.Sources)
	}
	for _, s := range snap.Sources {
		if !s.OK {
			t.Errorf("source %s failed: %s", s.Name, s.Error)
		}
	}
	var predictOK float64
	var latCount uint64
	for _, m := range snap.Metrics {
		if m.Name == "serve_requests_total" && m.Label("endpoint") == "/v1/predict" && m.Label("code") == "200" {
			predictOK = m.Value
		}
		if m.Name == "serve_latency_seconds" && m.Label("endpoint") == "/v1/predict" {
			latCount = m.Count
		}
	}
	if predictOK != requests {
		t.Errorf("fleet-wide predict 200s = %v, want %d", predictOK, requests)
	}
	// The runtime gauges sum over the four sources: each has at least
	// one goroutine and a heap.
	runtime := map[string]float64{}
	for _, m := range snap.Metrics {
		if strings.HasPrefix(m.Name, "go_") {
			runtime[m.Name] = m.Value
		}
	}
	if len(runtime) != 3 || runtime["go_goroutines"] < 4 || runtime["go_heap_inuse_bytes"] <= 0 {
		t.Errorf("merged runtime gauges %v, want heap, goroutines (≥ 4) and GC pause", runtime)
	}
	if latCount != requests {
		t.Errorf("fleet-wide latency count = %d, want %d", latCount, requests)
	}
	if snap.RED.Requests < requests {
		t.Errorf("RED requests %v, want >= %d", snap.RED.Requests, requests)
	}
	if snap.RED.RatePerS <= 0 || snap.RED.P99S <= 0 {
		t.Errorf("RED not derived: %+v", snap.RED)
	}
	if len(snap.SLOs) == 0 {
		t.Errorf("default SLOs missing from aggregate")
	}
	for _, a := range snap.Alerts {
		t.Errorf("healthy fleet raised alert: %+v", a)
	}
}

// TestClusterTelemetryEndpoint exercises GET /v1/cluster/telemetry:
// on-demand poll with no background loop, JSON and Prometheus forms.
func TestClusterTelemetryEndpoint(t *testing.T) {
	_, _, _, url := tracedServeCluster(t, 2)

	if resp, data := doPost(t, url+"/v1/predict", predictBodyFor(1), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d (%s)", resp.StatusCode, data)
	}

	resp, err := http.Get(url + "/v1/cluster/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	var snap ClusterTelemetryResponse
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding telemetry: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(snap.Metrics) == 0 || len(snap.Sources) == 0 {
		t.Fatalf("telemetry response: %d, %d metrics, %d sources", resp.StatusCode, len(snap.Metrics), len(snap.Sources))
	}

	resp, err = http.Get(url + "/v1/cluster/telemetry?format=prom&refresh=1")
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, resp)
	if !strings.Contains(page, "serve_requests_total") {
		t.Fatalf("prom page missing fleet metrics:\n%.500s", page)
	}
	if !strings.Contains(page, "cluster_requests_total") {
		t.Fatalf("prom page missing router metrics:\n%.500s", page)
	}
}

// TestClusterTelemetryEndpointLive: with no poll loop configured, every
// GET polls, so traffic between two GETs shows up in the second. The
// endpoint once answered its first on-demand aggregate forever.
func TestClusterTelemetryEndpointLive(t *testing.T) {
	_, _, _, url := tracedServeCluster(t, 2)
	predicts := func() float64 {
		t.Helper()
		var snap ClusterTelemetryResponse
		if _, data := getBody(t, url+"/v1/cluster/telemetry"); json.Unmarshal(data, &snap) != nil {
			t.Fatalf("decoding telemetry: %s", data)
		}
		for _, m := range snap.Metrics {
			if m.Name == "serve_requests_total" && m.Label("endpoint") == "/v1/predict" {
				return m.Value
			}
		}
		return 0
	}
	if n := predicts(); n != 0 {
		t.Fatalf("fresh fleet served %v predicts, want 0", n)
	}
	for seed := 1; seed <= 3; seed++ {
		if resp, data := doPost(t, url+"/v1/predict", predictBodyFor(seed), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d (%s)", resp.StatusCode, data)
		}
	}
	if n := predicts(); n != 3 {
		t.Fatalf("fleet served %v predicts after 3, want 3 (stale aggregate)", n)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// telemetryStub is a stub replica whose /v1/telemetry body is swappable
// between polls — the seam for injecting latency regressions and
// malformed snapshots.
type telemetryStub struct {
	mu   sync.Mutex
	body func() any
}

func (s *telemetryStub) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/telemetry", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		body := s.body()
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if raw, ok := body.(string); ok {
			fmt.Fprint(w, raw)
			return
		}
		if err := json.NewEncoder(w).Encode(body); err != nil {
			return
		}
	})
	return mux
}

func (s *telemetryStub) set(body func() any) {
	s.mu.Lock()
	s.body = body
	s.mu.Unlock()
}

// stubSnapshot builds a telemetry body with the given cumulative
// request count and latency bucket counts over bounds {0.1, 0.25, 1}.
func stubSnapshot(total float64, latCounts []uint64) obs.TelemetrySnapshot {
	var n uint64
	for _, c := range latCounts {
		n += c
	}
	return obs.TelemetrySnapshot{
		UptimeS: 1,
		Metrics: []obs.Metric{
			{Name: "serve_latency_seconds", Type: "histogram",
				BucketLE: []float64{0.1, 0.25, 1}, Counts: latCounts, Count: n},
			{Name: "serve_requests_total", Type: "counter",
				Labels: []obs.Label{{Key: "code", Value: "200"}, {Key: "endpoint", Value: "/v1/predict"}},
				Value:  total},
		},
	}
}

// TestClusterSLOBurnRateAlert injects a deterministic latency
// regression through a stub replica's telemetry and requires the stock
// p99 burn-rate alert to fire exactly once across repeated polls.
func TestClusterSLOBurnRateAlert(t *testing.T) {
	stub := &telemetryStub{}
	stub.set(func() any { return stubSnapshot(100, []uint64{90, 10, 0, 0}) })

	c, err := New(Config{
		Replicas: []Replica{{Name: "r0", BaseURL: "http://r0", Transport: NewHandlerTransport(stub.handler())}},
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	// Poll 1: all requests under 250 ms — no alert.
	snap := c.PollNow()
	if len(snap.Alerts) != 0 {
		t.Fatalf("fast traffic alerted: %+v", snap.Alerts)
	}

	// Poll 2: 5 of the next 100 requests land in the 1s bucket —
	// 2.5% bad against a 1% budget. Fires.
	stub.set(func() any { return stubSnapshot(200, []uint64{170, 25, 5, 0}) })
	snap = c.PollNow()
	if len(snap.Alerts) != 1 || snap.Alerts[0].State != "firing" || snap.Alerts[0].SLO != "latency-p99" {
		t.Fatalf("expected one firing alert, got %+v", snap.Alerts)
	}

	// Polls 3..5: regression persists — still exactly one alert.
	for i := 0; i < 3; i++ {
		snap = c.PollNow()
	}
	if len(snap.Alerts) != 1 {
		t.Fatalf("alert re-fired: %+v", snap.Alerts)
	}
	// Only the latency objective of the two stock ones is firing: every
	// request answered 200.
	if len(snap.SLOs) != len(obs.DefaultSLOs()) {
		t.Fatalf("want the %d stock SLO statuses, got %+v", len(obs.DefaultSLOs()), snap.SLOs)
	}
	for _, st := range snap.SLOs {
		if st.Firing != (st.SLO.Name == "latency-p99") {
			t.Errorf("SLO %s firing %v: %+v", st.SLO.Name, st.Firing, snap.SLOs)
		}
	}
}

// TestClusterTelemetryBadSourceIsolated: a replica serving garbage (or
// an incompatible bucket layout) is reported in Sources and excluded
// without poisoning the healthy replicas' aggregate. It answered 200,
// so it stays healthy: a bad snapshot is not a health strike.
func TestClusterTelemetryBadSourceIsolated(t *testing.T) {
	good := &telemetryStub{}
	good.set(func() any { return stubSnapshot(50, []uint64{50, 0, 0, 0}) })
	bad := &telemetryStub{}
	bad.set(func() any { return `{"metrics": not-json` })

	c, err := New(Config{
		Replicas: []Replica{
			{Name: "good", BaseURL: "http://good", Transport: NewHandlerTransport(good.handler())},
			{Name: "zbad", BaseURL: "http://zbad", Transport: NewHandlerTransport(bad.handler())},
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	c.PollNow()
	snap := c.PollNow() // two polls: enough strikes to kill, were it one
	var goodOK, badFailed bool
	for _, s := range snap.Sources {
		if s.Name == "good" && s.OK {
			goodOK = true
		}
		if s.Name == "zbad" && !s.OK && s.Error != "" {
			badFailed = true
		}
	}
	if !goodOK || !badFailed {
		t.Fatalf("sources %+v, want good OK and bad failed", snap.Sources)
	}
	if snap.RED.Requests != 50 {
		t.Fatalf("aggregate poisoned or lost: RED %+v", snap.RED)
	}
	if st, _ := c.set.state("zbad"); st != StateHealthy {
		t.Fatalf("garbage-body replica %v after two polls, want healthy", st)
	}

	// Mismatched bucket layout from the bad replica: same isolation.
	bad.set(func() any {
		return obs.TelemetrySnapshot{Metrics: []obs.Metric{
			{Name: "serve_latency_seconds", Type: "histogram", BucketLE: []float64{9}, Counts: []uint64{1, 0}, Count: 1},
		}}
	})
	snap = c.PollNow()
	for _, s := range snap.Sources {
		if s.Name == "zbad" && s.OK {
			t.Fatalf("incompatible layout accepted: %+v", snap.Sources)
		}
	}
	if snap.RED.Requests != 50 {
		t.Fatalf("aggregate perturbed by rejected source: %+v", snap.RED)
	}
}

// TestRouterDebugEndpointsAbsent pins the pprof opt-in contract on the
// router mux, mirroring serve's test.
func TestRouterDebugEndpointsAbsent(t *testing.T) {
	_, _, url := newEchoCluster(t, 1, nil)
	for _, p := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/traces"} {
		resp, err := http.Get(url + p)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on the router mux: %d, want 404", p, resp.StatusCode)
		}
	}
}
