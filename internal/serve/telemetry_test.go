package serve

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestTelemetryEndpointRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Generate some traffic first so the snapshot has RED state.
	resp, data := postJSON(t, ts.URL+"/v1/predict", predictBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d: %s", resp.StatusCode, data)
	}

	var snap obs.TelemetrySnapshot
	getJSON(t, ts.URL+"/v1/telemetry", &snap)
	if snap.UptimeS <= 0 {
		t.Fatalf("uptime %v, want > 0", snap.UptimeS)
	}
	var reqs, lat bool
	for _, m := range snap.Metrics {
		if m.Name == "serve_requests_total" && m.Type == "counter" && m.Label("code") == "200" {
			reqs = true
		}
		if m.Name == "serve_latency_seconds" && m.Type == "histogram" {
			lat = true
			if len(m.Counts) != len(m.BucketLE)+1 {
				t.Fatalf("histogram not mergeable: %d counts for %d bounds", len(m.Counts), len(m.BucketLE))
			}
			if m.Count == 0 {
				t.Fatalf("latency histogram empty after a request")
			}
		}
	}
	if !reqs || !lat {
		t.Fatalf("snapshot missing RED metrics (reqs=%v lat=%v)", reqs, lat)
	}

	// The wire state must merge cleanly into an empty aggregate.
	if _, err := obs.MergeMetrics(nil, snap.Metrics); err != nil {
		t.Fatalf("snapshot does not merge: %v", err)
	}
}

// TestTelemetryRuntimeGauges: every telemetry reply carries the runtime
// gauges, in Snapshot order, and merges cleanly.
func TestTelemetryRuntimeGauges(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var snap obs.TelemetrySnapshot
	getJSON(t, ts.URL+"/v1/telemetry", &snap)
	if _, err := obs.MergeMetrics(nil, snap.Metrics); err != nil {
		t.Fatalf("snapshot does not merge: %v", err)
	}
	var g []obs.Metric
	for _, m := range snap.Metrics {
		if strings.HasPrefix(m.Name, "go_") {
			g = append(g, m)
		}
	}
	if len(g) != 3 || g[2].Name != "go_heap_inuse_bytes" || g[2].Value <= 0 || g[1].Value < 1 {
		t.Fatalf("runtime gauges %+v, want GC pause, goroutines and heap in use", g)
	}
}

func TestTraceParentExtraction(t *testing.T) {
	tracer := obs.NewTracer(5)
	s, ts := newTestServer(t, Config{Tracer: tracer})

	// Simulate the router: mint a forward span in another tracer and
	// inject its context.
	router := obs.NewTracer(1)
	fwd := router.StartChild(router.Start("router /v1/healthz", 0), "forward r0", 0)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceParentHeader, fwd.TraceParent().String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	spans := tracer.Spans()
	if len(spans) != 1 {
		t.Fatalf("want exactly one handler span, got %d", len(spans))
	}
	if spans[0].Parent != fwd.ID().String() {
		t.Fatalf("handler parent %q, want forward span %q", spans[0].Parent, fwd.ID().String())
	}
	if spans[0].TraceID != fwd.TraceID().String() {
		t.Fatalf("handler trace %q, want %q", spans[0].TraceID, fwd.TraceID().String())
	}
	if got := resp.Header.Get("X-Trace-Id"); got != fwd.TraceID().String() {
		t.Fatalf("X-Trace-Id %q, want %q", got, fwd.TraceID().String())
	}
	_ = s
}

func TestMalformedTraceParentFallsBackToRoot(t *testing.T) {
	tracer := obs.NewTracer(5)
	_, ts := newTestServer(t, Config{Tracer: tracer})

	for _, h := range []string{"garbage", strings.Repeat("0", 55), "00-XYZ-1-01"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceParentHeader, h)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("header %q broke the request: %d", h, resp.StatusCode)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, sp := range tracer.Spans() {
		if sp.Parent != "" {
			t.Fatalf("span %d has parent %q from a malformed header", i, sp.Parent)
		}
		if sp.TraceID == "" {
			t.Fatalf("span %d has no fresh root trace", i)
		}
	}
}

func TestDebugEndpointsAbsentFromMainMux(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, p := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline", "/debug/traces"} {
		resp := getJSON(t, ts.URL+p, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on the main mux: %d, want 404 (pprof must be opt-in)", p, resp.StatusCode)
		}
	}
}

func TestDebugHandlerServesPprof(t *testing.T) {
	ts := httptest.NewServer(DebugHandler(obs.NewTracer(1)))
	t.Cleanup(ts.Close)
	resp := getJSON(t, ts.URL+"/debug/pprof/", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index on the debug mux: %d", resp.StatusCode)
	}
}

// TestDebugHandlerServesTraces: GET /debug/traces answers the tracer's
// retained spans as JSONL that obs.ReadSpans (cmd/trace's reader)
// parses back to the same records.
func TestDebugHandlerServesTraces(t *testing.T) {
	tracer := obs.NewTracer(5)
	_, api := newTestServer(t, Config{Tracer: tracer})
	for i := 0; i < 3; i++ {
		if resp, data := postJSON(t, api.URL+"/v1/predict", predictBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d: %s", resp.StatusCode, data)
		}
	}
	ts := httptest.NewServer(DebugHandler(tracer))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("GET /debug/traces: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	got, err := obs.ReadSpans(resp.Body)
	if err != nil {
		t.Fatalf("reading the served trace: %v", err)
	}
	if want := tracer.Spans(); len(got) != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("served %d spans, tracer holds %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
	}
}
