package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/perfmodel"
)

// predictBodyTier is predictBody plus an explicit tier selector.
func predictBodyTier(tier string) string {
	return `{"workload":{"geometry":"cylinder","scale":5},"systems":["CSP-2"],"ranks":[8],"tier":"` + tier + `"}`
}

// TestPredictUnknownTierRejected asserts the validation contract: an
// unknown tier answers 400 and the error names the accepted set.
func TestPredictUnknownTierRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/predict", "/v1/plan"} {
		body := `{"workload":{"geometry":"cylinder","scale":5},"ranks":[8],"tier":"best"}`
		if path == "/v1/plan" {
			body = `{"workload":{"geometry":"cylinder","scale":5},"ranks":8,"steps":10,"tier":"best"}`
		}
		resp, data := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", path, resp.StatusCode, data)
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatal(err)
		}
		for _, want := range perfmodel.ValidTiers() {
			if !strings.Contains(er.Error, want) {
				t.Errorf("%s: error %q does not name valid tier %q", path, er.Error, want)
			}
		}
	}
}

// TestPredictLegacyByteCompat pins the v1 contract for pre-tier clients:
// a request without a tier field yields exactly the predictions an
// explicit tier1 request does (same calibration, same numbers), and the
// response's per-prediction keys are the frozen set plus only the three
// additive provenance fields.
func TestPredictLegacyByteCompat(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, legacy := postJSON(t, ts.URL+"/v1/predict", predictBody)
	_, explicit := postJSON(t, ts.URL+"/v1/predict", predictBodyTier("tier1"))

	var lr, er PredictResponse
	if err := json.Unmarshal(legacy, &lr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(explicit, &er); err != nil {
		t.Fatal(err)
	}
	// The legacy request IS a tier1 request: same cache entry, same
	// predictions byte for byte.
	lp, _ := json.Marshal(lr.Predictions)
	ep, _ := json.Marshal(er.Predictions)
	if string(lp) != string(ep) {
		t.Errorf("legacy predictions differ from explicit tier1:\n%s\n%s", lp, ep)
	}
	if er.CacheHits != 1 {
		t.Errorf("explicit tier1 did not ride the legacy request's cache entry: %+v", er)
	}

	// Frozen keys unchanged; only the documented additive fields appear.
	allowed := map[string]bool{
		"system": true, "model": true, "ranks": true, "mflups": true,
		"seconds_per_step": true, "mem_s": true, "intra_s": true,
		"inter_s": true, "cpu_gpu_s": true, "comm_bandwidth_s": true,
		"comm_latency_s": true,
		// v1 additive provenance:
		"tier": true, "confidence": true, "extrapolated": true,
	}
	var raw struct {
		Predictions []map[string]json.RawMessage `json:"predictions"`
	}
	if err := json.Unmarshal(legacy, &raw); err != nil {
		t.Fatal(err)
	}
	for _, p := range raw.Predictions {
		for k := range p {
			if !allowed[k] {
				t.Errorf("unexpected prediction key %q breaks the frozen v1 shape", k)
			}
		}
		for _, k := range []string{"system", "model", "ranks", "mflups", "seconds_per_step"} {
			if _, ok := p[k]; !ok {
				t.Errorf("frozen key %q missing from legacy response", k)
			}
		}
		if string(p["tier"]) != `"tier1"` {
			t.Errorf("legacy request served at tier %s, want tier1", p["tier"])
		}
	}
}

// TestPredictExplicitTiers exercises each tier end to end and checks the
// provenance that comes back.
func TestPredictExplicitTiers(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, tc := range []struct {
		tier      string
		wantTier  string
		wantModel string
	}{
		{"tier0", "tier0", "generalized"},
		{"tier1", "tier1", "generalized"},
		{"tier2", "tier2", "generalized"},
		// Auto resolves to the measured tier: the embedded table covers
		// every catalog system.
		{"auto", "tier2", "generalized"},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/predict", predictBodyTier(tc.tier))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tier %s: status %d: %s", tc.tier, resp.StatusCode, data)
		}
		var pr PredictResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		p := pr.Predictions[0]
		if p.Tier != tc.wantTier || p.Model != tc.wantModel {
			t.Errorf("tier %s: served (%s, %s), want (%s, %s)", tc.tier, p.Tier, p.Model, tc.wantTier, tc.wantModel)
		}
		if p.MFLUPS <= 0 || p.SecondsPerStep <= 0 {
			t.Errorf("tier %s: implausible prediction %+v", tc.tier, p)
		}
		if p.Confidence == nil {
			t.Errorf("tier %s: missing confidence band", tc.tier)
		} else if p.Confidence.LoMFLUPS >= p.MFLUPS || p.Confidence.HiMFLUPS <= p.MFLUPS {
			t.Errorf("tier %s: band %+v does not bracket %g", tc.tier, p.Confidence, p.MFLUPS)
		}
	}
}

// TestTier2MatchesOracle pins what the benchmark's oracle assumes of a
// Tier 2 reply: an explicit tier2 generalized prediction is, bit for bit,
// NewLookupBackend over DefaultTable on the anatomy's summary without its
// laws, and auto, whose entry also holds a calibrated backend, gives the
// same Tier 2 answer, as does a predictor built with one.
func TestTier2MatchesOracle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	a, err := s.anatomyFor(context.Background(), WorkloadSpec{Geometry: "cylinder", Scale: 5})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := perfmodel.DefaultTable()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.ByAbbrev("CSP-2")
	if err != nil {
		t.Fatal(err)
	}
	char, err := perfmodel.Characterize(sys, 1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	oracle := perfmodel.NewLookupBackend(sys.Abbrev, tbl)
	calibrated, err := perfmodel.NewPredictor(perfmodel.NewPhysicsBackend(sys), perfmodel.NewCalibratedBackend(char), oracle)
	if err != nil {
		t.Fatal(err)
	}
	ranks := []int{8, 64}
	for _, tier := range []string{"tier2", "auto"} {
		_, data := postJSON(t, ts.URL+"/v1/predict", `{"workload":{"geometry":"cylinder","scale":5},"systems":["CSP-2"],`+
			`"ranks":[8,64],"model":"generalized","tier":"`+tier+`"}`)
		var pr PredictResponse
		if err := json.Unmarshal(data, &pr); err != nil || len(pr.Predictions) != len(ranks) {
			t.Fatalf("%s: reply %s (%v)", tier, data, err)
		}
		for i, r := range ranks {
			want, err := oracle.Predict(perfmodel.Request{Model: perfmodel.ModelGeneral, Summary: &a.Summary, Ranks: r, Tier: perfmodel.Tier2Measured})
			if err != nil {
				t.Fatal(err)
			}
			if got := pr.Predictions[i]; got.Tier != perfmodel.Tier2Measured || got.MFLUPS != want.MFLUPS {
				t.Errorf("%s at %d ranks: served %s %v MFLUPS, the oracle's backend gives tier2 %v", tier, r, got.Tier, got.MFLUPS, want.MFLUPS)
			}
			g, err := a.General()
			if err != nil {
				t.Fatal(err)
			}
			got, err := calibrated.Predict(perfmodel.Request{Model: perfmodel.ModelGeneral, Summary: &a.Summary, General: g,
				Ranks: r, Tier: perfmodel.Tier2Measured})
			if err != nil || got != want {
				t.Errorf("%d ranks: Tier 2 beside a calibrated backend gives %+v (%v), alone %+v", r, got, err, want)
			}
		}
	}
}

// TestPredictCrossTierCacheIsolation asserts the cache key is
// tier-qualified: the same (system, workload, seed) at different tiers
// builds separate entries, and repeats within one tier still hit.
func TestPredictCrossTierCacheIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	for i, tier := range []string{"tier1", "tier0", "tier2", "auto"} {
		_, data := postJSON(t, ts.URL+"/v1/predict", predictBodyTier(tier))
		var pr PredictResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.CacheMisses != 1 || pr.CacheHits != 0 {
			t.Errorf("cold %s request (#%d) cache stats %+v, want one miss", tier, i, pr)
		}
		_, data = postJSON(t, ts.URL+"/v1/predict", predictBodyTier(tier))
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.CacheHits != 1 || pr.CacheMisses != 0 {
			t.Errorf("warm %s request cache stats %+v, want one hit", tier, pr)
		}
	}
	if got := s.entries.Len(); got != 4 {
		t.Errorf("cache entries %d, want 4 (one per tier)", got)
	}
	if got := s.anatomies.Len(); got != 1 {
		t.Errorf("%d anatomies, want the 1 workload every tier shares", got)
	}
}

// TestPredictTier2NoDataIs400: an explicit tier2 request for a system
// the Tier 2 table does not cover is the client's problem (ErrNoData →
// 400), never a 500.
func TestPredictTier2NoDataIs400(t *testing.T) {
	tbl, err := perfmodel.LoadTable(strings.NewReader(
		"system,kernel,points,ranks,efficiency,general_efficiency\nCSP-2,harvey,22069,8,0.9,0.9\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Table: tbl})

	body := `{"workload":{"geometry":"cylinder","scale":5},"systems":["TRC"],"ranks":[8],"tier":"tier2"}`
	resp, data := postJSON(t, ts.URL+"/v1/predict", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
		t.Fatalf("error body malformed: %s", data)
	}
	// Auto on the same uncovered system falls back instead of failing.
	body = `{"workload":{"geometry":"cylinder","scale":5},"systems":["TRC"],"ranks":[8],"tier":"auto"}`
	resp, data = postJSON(t, ts.URL+"/v1/predict", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto fallback status %d: %s", resp.StatusCode, data)
	}
	var pr PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Predictions[0].Tier != perfmodel.Tier1Calibrated {
		t.Errorf("auto on uncovered system served tier %q, want tier1", pr.Predictions[0].Tier)
	}
}

// TestPlanTierProvenance: /v1/plan threads the tier through assessment
// and reports provenance on every row.
func TestPlanTierProvenance(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body := `{"workload":{"geometry":"cylinder","scale":5},"ranks":8,"steps":100,"tier":"tier0"}`
	resp, data := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Assessments) == 0 || pr.Recommended == nil {
		t.Fatalf("empty plan: %s", data)
	}
	for _, a := range pr.Assessments {
		if a.Tier != perfmodel.Tier0Physics {
			t.Errorf("%s assessed at tier %q, want tier0", a.System, a.Tier)
		}
		if a.Confidence == nil {
			t.Errorf("%s assessment missing confidence band", a.System)
		}
	}
	if pr.Recommended.Tier != perfmodel.Tier0Physics {
		t.Errorf("recommendation tier %q, want tier0", pr.Recommended.Tier)
	}
}
