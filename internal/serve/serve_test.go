package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// newTestServer builds a Server plus its httptest harness. Config knobs
// default small so calibrations stay cheap.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Samples == 0 {
		cfg.Samples = 1
	}
	if cfg.DefaultSeed == 0 {
		cfg.DefaultSeed = 7
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

const predictBody = `{"workload":{"geometry":"cylinder","scale":5},"systems":["CSP-2"],"ranks":[8]}`

func TestPredictEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, data := postJSON(t, ts.URL+"/v1/predict", predictBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != 1 {
		t.Fatalf("predictions: %d, want 1", len(pr.Predictions))
	}
	p := pr.Predictions[0]
	if p.System != "CSP-2" || p.Ranks != 8 || p.MFLUPS <= 0 || p.SecondsPerStep <= 0 {
		t.Errorf("prediction implausible: %+v", p)
	}
	if p.Model != "generalized" {
		t.Errorf("default model %q, want generalized", p.Model)
	}
	if pr.CacheMisses != 1 || pr.CacheHits != 0 {
		t.Errorf("cold request cache stats: %+v", pr)
	}

	// Second identical request rides the cache.
	resp, data = postJSON(t, ts.URL+"/v1/predict", predictBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.CacheHits != 1 || pr.CacheMisses != 0 {
		t.Errorf("warm request cache stats: %+v", pr)
	}
}

func TestPredictBatchAcrossCatalogAndDirectModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Empty systems = whole catalog; two rank counts; direct model.
	body := `{"workload":{"geometry":"cylinder","scale":5},"ranks":[4,8],"model":"direct"}`
	resp, data := postJSON(t, ts.URL+"/v1/predict", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	catalog := 5 // machine.Catalog()
	if len(pr.Predictions) != catalog*2 {
		t.Fatalf("predictions: %d, want %d", len(pr.Predictions), catalog*2)
	}
	for _, p := range pr.Predictions {
		if p.Model != "direct" || p.MFLUPS <= 0 {
			t.Errorf("bad batch entry: %+v", p)
		}
	}
	if pr.CacheMisses != catalog {
		t.Errorf("cold batch misses: %d, want %d", pr.CacheMisses, catalog)
	}
}

func TestMalformedAndInvalidRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed predict", "/v1/predict", `{nope`, http.StatusBadRequest},
		{"malformed plan", "/v1/plan", `{"workload":`, http.StatusBadRequest},
		{"malformed campaign", "/v1/campaigns", `[]`, http.StatusBadRequest},
		{"unknown field", "/v1/predict", `{"workloud":{}}`, http.StatusBadRequest},
		{"missing ranks", "/v1/predict", `{"workload":{"geometry":"cylinder","scale":5}}`, http.StatusBadRequest},
		{"bad occupancy", "/v1/predict", `{"workload":{"geometry":"cylinder","scale":5},"ranks":[4],"occupancy":2}`, http.StatusBadRequest},
		{"bad model", "/v1/predict", `{"workload":{"geometry":"cylinder","scale":5},"ranks":[4],"model":"quantum"}`, http.StatusBadRequest},
		{"bad geometry", "/v1/predict", `{"workload":{"geometry":"spleen","scale":5},"ranks":[4]}`, http.StatusBadRequest},
		{"unknown system", "/v1/predict", `{"workload":{"geometry":"cylinder","scale":5},"systems":["VAX-11"],"ranks":[4]}`, http.StatusNotFound},
		// The system is checked before the geometry is built, as it always was.
		{"unknown system and bad geometry", "/v1/predict", `{"workload":{"geometry":"spleen","scale":5},"systems":["VAX-11"],"ranks":[4]}`, http.StatusNotFound},
		{"plan unknown system and bad geometry", "/v1/plan", `{"workload":{"geometry":"spleen","scale":5},"systems":["VAX-11"],"ranks":4,"steps":10}`, http.StatusNotFound},
		{"ranks entry over the limit", "/v1/predict", fmt.Sprintf(`{"workload":{"geometry":"cylinder","scale":5},"ranks":[4,%d]}`, maxRanks+1), http.StatusBadRequest},
		{"plan ranks over the limit", "/v1/plan", `{"workload":{"geometry":"cylinder","scale":5},"ranks":9223372036854775807,"steps":10}`, http.StatusBadRequest},
		{"bad objective", "/v1/plan", `{"workload":{"geometry":"cylinder","scale":5},"ranks":4,"steps":10,"objective":"wat"}`, http.StatusBadRequest},
		{"bad backend", "/v1/campaigns", `{"backend":"mainframe","config":{}}`, http.StatusBadRequest},
		{"campaign bad config", "/v1/campaigns", `{"config":{"budget_usd":0,"jobs":[]}}`, http.StatusBadRequest},
		{"fleet without pool", "/v1/campaigns", `{"backend":"fleet","config":{"budget_usd":1,"jobs":[{"name":"a","geometry":"cylinder","scale":5,"ranks":4,"steps":10}]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, data)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body malformed: %s", tc.name, data)
		}
	}
}

// TestHugeTimeoutInheritsCeiling: a timeout_ms too large for a
// time.Duration is no tighter than the server's ceiling, not an
// overflow into a deadline already passed (a 504).
func TestHugeTimeoutInheritsCeiling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/predict", "/v1/plan"} {
		body := `{"workload":{"geometry":"cylinder","scale":5},"systems":["CSP-2"],"ranks":[8],"timeout_ms":9223372036854775807}`
		if path == "/v1/plan" {
			body = `{"workload":{"geometry":"cylinder","scale":5},"ranks":8,"steps":10,"timeout_ms":9223372036854775807}`
		}
		if resp, data := postJSON(t, ts.URL+path, body); resp.StatusCode != http.StatusOK {
			t.Errorf("%s with timeout_ms MaxInt64: %d (%s)", path, resp.StatusCode, data)
		}
	}
}

// TestScaleLimit: a workload scale past maxScale is a 400 naming the
// limit on every endpoint that builds a lattice, campaign jobs included,
// and nothing is built or started.
func TestScaleLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	over := maxScale + 1
	cases := []struct {
		name, path, body string
		want             int
	}{
		// At the limit the scale passes; the unknown system then answers
		// 404 before any build.
		{"predict at the limit", "/v1/predict",
			fmt.Sprintf(`{"workload":{"geometry":"cylinder","scale":%d},"systems":["VAX-11"],"ranks":[4]}`, maxScale), http.StatusNotFound},
		{"predict", "/v1/predict",
			fmt.Sprintf(`{"workload":{"geometry":"cylinder","scale":%d},"ranks":[4]}`, over), http.StatusBadRequest},
		{"plan", "/v1/plan",
			fmt.Sprintf(`{"workload":{"geometry":"aorta","scale":%d},"ranks":4,"steps":10}`, over), http.StatusBadRequest},
		{"campaign job", "/v1/campaigns",
			fmt.Sprintf(`{"config":{"budget_usd":1,"jobs":[{"name":"big","geometry":"cylinder","scale":%d,"ranks":4,"steps":10}]}}`, over), http.StatusBadRequest},
		{"physical campaign job", "/v1/campaigns",
			fmt.Sprintf(`{"config":{"budget_usd":1,"jobs":[{"name":"big","geometry":"cylinder","ranks":4,
			  "physical":{"diameter_mm":20,"peak_speed_ms":1,"sites_across":%d,"beats":1}}]}}`, 2*over), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, data)
			continue
		}
		if tc.want == http.StatusBadRequest && !strings.Contains(string(data), fmt.Sprintf("limit of %d", maxScale)) {
			t.Errorf("%s: error does not name the limit: %s", tc.name, data)
		}
	}
	if n, c := s.anatomies.Len(), s.campaigns.running(); n != 0 || c != 0 {
		t.Errorf("rejected requests built %d anatomies and started %d campaigns", n, c)
	}
}

// TestBatchLimit: a predict batch of more than maxPredictions — systems ×
// ranks, no systems meaning the whole catalog — is a 400 naming the
// limit; a batch at the limit is served.
func TestBatchLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const catalog = 5 // machine.Catalog()
	cases := []struct {
		name            string
		systems, ranks  int // systems 0: the whole catalog
		wantPredictions int
		wantStatus      int
	}{
		{"one system at the limit", 1, maxPredictions, maxPredictions, http.StatusOK},
		{"one system over", 1, maxPredictions + 1, 0, http.StatusBadRequest},
		{"whole catalog under", 0, maxPredictions / catalog, maxPredictions / catalog * catalog, http.StatusOK},
		{"whole catalog over", 0, maxPredictions/catalog + 1, 0, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := PredictRequest{Workload: WorkloadSpec{Geometry: "cylinder", Scale: 5}}
		if tc.systems == 1 {
			req.Systems = []string{"CSP-2"}
		}
		for k := 1; k <= tc.ranks; k++ {
			req.Ranks = append(req.Ranks, k)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, ts.URL+"/v1/predict", string(body))
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%.200s)", tc.name, resp.StatusCode, tc.wantStatus, data)
			continue
		}
		if tc.wantStatus != http.StatusOK {
			if !strings.Contains(string(data), fmt.Sprintf("limit of %d predictions", maxPredictions)) {
				t.Errorf("%s: error does not name the limit: %s", tc.name, data)
			}
			continue
		}
		var pr PredictResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if len(pr.Predictions) != tc.wantPredictions {
			t.Errorf("%s: %d predictions, want %d", tc.name, len(pr.Predictions), tc.wantPredictions)
		}
	}
}

// TestDeadlineExceeded: a server whose request ceiling is already
// expired must answer 504, not hang or 500 — the context checks between
// calibration stages abandon the cold build.
func TestDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})

	resp, data := postJSON(t, ts.URL+"/v1/predict", predictBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, data)
	}
}

// TestShed429 saturates the limiter deterministically: one request
// parks inside the hook while holding the only slot, so the next is
// shed with 429 + Retry-After.
func TestShed429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.hookAfterAcquire = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(predictBody))
		if err != nil {
			t.Errorf("slot-holding request failed: %v", err)
			return
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Error(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	<-entered

	resp, data := postJSON(t, ts.URL+"/v1/predict", predictBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	// GET endpoints are exempt from the limiter: health must answer
	// even while the service is saturated.
	var hr HealthResponse
	if resp := getJSON(t, ts.URL+"/v1/healthz", &hr); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz under saturation: %d", resp.StatusCode)
	}

	close(release)
	wg.Wait()
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body := `{"workload":{"geometry":"cylinder","scale":5},"ranks":16,"steps":1000,"objective":"min-cost"}`
	resp, data := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Recommended == nil {
		t.Fatal("no recommendation")
	}
	if pr.Objective != "min-cost" {
		t.Errorf("objective %q", pr.Objective)
	}
	if len(pr.Assessments) != 5 {
		t.Errorf("assessments: %d, want 5", len(pr.Assessments))
	}
	if len(pr.Pareto) == 0 {
		t.Error("empty Pareto frontier")
	}
	// min-cost recommendation must be the cheapest assessment.
	for _, a := range pr.Assessments {
		if a.USD < pr.Recommended.USD {
			t.Errorf("recommended $%v beaten by %s at $%v", pr.Recommended.USD, a.System, a.USD)
		}
	}
}

func TestPlanBoundsExcludeSystems(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// An absurd cost bound cuts everything: Recommended must be null
	// and every system must be explained in excluded.
	body := `{"workload":{"geometry":"cylinder","scale":5},"ranks":16,"steps":1000,"max_usd":1e-9}`
	resp, data := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Recommended != nil {
		t.Errorf("recommendation under impossible bound: %+v", pr.Recommended)
	}
	if len(pr.Excluded) != 5 {
		t.Errorf("excluded: %d, want 5 (%v)", len(pr.Excluded), pr.Excluded)
	}
}

const campaignSubmitBody = `{"backend":"serial","config":{
  "seed": 3, "budget_usd": 1.0, "objective": "min-cost",
  "jobs": [{"name": "smoke", "geometry": "cylinder", "scale": 5, "ranks": 8, "steps": 200}]}}`

// runCampaign submits a campaign and polls it to a terminal state.
func runCampaign(t *testing.T, ts *httptest.Server, body string) CampaignStatusResponse {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/v1/campaigns", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var ack CampaignQueuedResponse
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.ID == "" || ack.URL != "/v1/campaigns/"+ack.ID {
		t.Fatalf("ack malformed: %+v", ack)
	}

	deadline := time.Now().Add(60 * time.Second)
	var st CampaignStatusResponse
	for {
		if resp := getJSON(t, ts.URL+ack.URL, &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("status endpoint: %d", resp.StatusCode)
		}
		if st.State == CampaignDone || st.State == CampaignFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck in %q", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != CampaignDone {
		t.Fatalf("campaign failed: %s", st.Error)
	}
	return st
}

func TestCampaignLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := runCampaign(t, ts, campaignSubmitBody)
	if st.Backend != "serial" || st.SpentUSD <= 0 || !strings.Contains(st.Report, "smoke") {
		t.Errorf("terminal status implausible: %+v", st)
	}
}

func TestCampaignNotFoundAndCapacity(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxCampaigns: 1})

	if resp := getJSON(t, ts.URL+"/v1/campaigns/c-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", resp.StatusCode)
	}

	// Block the only campaign slot inside the framework builder, then
	// overflow it.
	release := make(chan struct{})
	s.campaigns.newFramework = func(seed int64) (*core.Framework, error) {
		<-release
		return nil, fmt.Errorf("stub framework")
	}
	resp, data := postJSON(t, ts.URL+"/v1/campaigns", campaignSubmitBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d (%s)", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/campaigns", campaignSubmitBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	close(release)
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if resp, data := postJSON(t, ts.URL+"/v1/predict", predictBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d (%s)", resp.StatusCode, data)
	}

	var hr HealthResponse
	if resp := getJSON(t, ts.URL+"/v1/healthz", &hr); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if hr.Status != "ok" || hr.CacheEntries != 1 || hr.Anatomies != 1 {
		t.Errorf("health implausible: %+v", hr)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE serve_requests_total counter",
		`serve_requests_total{code="200",endpoint="/v1/predict"}`,
		"serve_latency_seconds_bucket",
		`serve_cache_total{result="miss"} 1`,
		`serve_anatomy_cache_total{result="miss"} 1`,
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("metrics text missing %q:\n%s", want, text)
		}
	}

	var ms []json.RawMessage
	if resp := getJSON(t, ts.URL+"/v1/metrics?format=json", &ms); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics json: %d", resp.StatusCode)
	}
	if len(ms) == 0 {
		t.Error("json snapshot empty")
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})

	big := `{"workload":{"geometry":"cylinder","scale":5},"ranks":[8],"systems":["` +
		strings.Repeat("x", 200) + `"]}`
	resp, data := postJSON(t, ts.URL+"/v1/predict", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, data)
	}
}

// TestGracefulCloseRejectsNewCampaigns: after Close the manager refuses
// submissions with 503.
func TestGracefulCloseRejectsNewCampaigns(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("close with nothing in flight: %v", err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/campaigns", campaignSubmitBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: %d, want 503 (%s)", resp.StatusCode, data)
	}
}
