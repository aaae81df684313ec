package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// anatomyLookups reads one result's counter of the anatomy cache.
func anatomyLookups(s *Server, result string) float64 {
	return s.reg.Counter("serve_anatomy_cache_total", obs.L("result", result)).Value()
}

// builds reads how many anatomies and entries the server has built: the
// miss counters of its two caches.
func builds(s *Server) (anatomies, entries float64) {
	return anatomyLookups(s, "miss"), s.reg.Counter("serve_cache_total", obs.L("result", "miss")).Value()
}

// TestPlanBuildsOneAnatomyAndOneEntryPerSystem: a whole-catalog plan on
// a never-seen workload prepares the anatomy once and characterizes each
// system once; the same plan on a second workload prepares one more
// anatomy and reuses every entry, because an entry is a function of
// (system, seed, tier) alone.
func TestPlanBuildsOneAnatomyAndOneEntryPerSystem(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	plan := func(geometry string) {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/plan", fmt.Sprintf(
			`{"workload":{"geometry":%q,"scale":5},"ranks":16,"steps":1000}`, geometry))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan on %s: status %d (%s)", geometry, resp.StatusCode, data)
		}
	}

	plan("cylinder")
	if a, e := builds(s); a != 1 || int(e) != len(s.cfg.Systems) {
		t.Errorf("first plan built %v anatomies and %v entries, want 1 and %d", a, e, len(s.cfg.Systems))
	}
	plan("stenosis")
	if a, e := builds(s); a != 2 || int(e) != len(s.cfg.Systems) {
		t.Errorf("after a second workload: %v anatomies and %v entries, want 2 and still %d", a, e, len(s.cfg.Systems))
	}
}

// TestDistinctSeedsShareOneAnatomyBuild (run under -race): 32 requests
// for one new workload, each with its own seed, coalesce onto a single
// anatomy build while every seed characterizes its own entry.
func TestDistinctSeedsShareOneAnatomyBuild(t *testing.T) {
	const clients = 32
	s, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for seed := 1; seed <= clients; seed++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(fmt.Sprintf(
				`{"workload":{"geometry":"aorta","scale":6},"systems":["CSP-2"],"ranks":[8],"seed":%d}`, seed)))
			if err != nil {
				t.Error(err)
				return
			}
			if err := resp.Body.Close(); err != nil {
				t.Error(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("seed %d: status %d", seed, resp.StatusCode)
			}
		}(seed)
	}
	wg.Wait()

	if a, e := builds(s); a != 1 || e != clients {
		t.Errorf("%d seeds on one workload built %v anatomies and %v entries, want 1 and %d", clients, a, e, clients)
	}
	if rest := anatomyLookups(s, "hit") + anatomyLookups(s, "coalesced"); rest != clients-1 {
		t.Errorf("%v anatomy lookups hit or coalesced, want %d", rest, clients-1)
	}
}

// TestCampaignPreparesThroughTheServersAnatomyCache: a submitted
// campaign's framework is handed the server's anatomy cache, so a job on a
// shape /v1/predict has already served prepares nothing, its lookup counts
// with the requests', and a shape the campaign met first is there for the
// next request. /v1/healthz's anatomies stays the number of prepared
// lattices, whoever asked for them.
func TestCampaignPreparesThroughTheServersAnatomyCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, data := postJSON(t, ts.URL+"/v1/predict", predictBody); resp.StatusCode != http.StatusOK { // cylinder@5
		t.Fatalf("predict: %d (%s)", resp.StatusCode, data)
	}
	if a, _ := builds(s); a != 1 {
		t.Fatalf("the predict built %v anatomies, want 1", a)
	}

	st := runCampaign(t, ts, `{"backend":"serial","config":{
	  "seed": 3, "budget_usd": 1.0, "objective": "min-cost",
	  "jobs": [{"name": "seen", "geometry": "cylinder", "scale": 5, "ranks": 8, "steps": 200},
	           {"name": "new", "geometry": "stenosis", "scale": 5, "ranks": 8, "steps": 200}]}}`)
	if !strings.Contains(st.Report, "seen") || !strings.Contains(st.Report, "new") {
		t.Errorf("report misses a job:\n%s", st.Report)
	}
	if a, hits := anatomyLookups(s, "miss"), anatomyLookups(s, "hit"); a != 2 || hits != 1 {
		t.Errorf("after the campaign: %v anatomy builds and %v hits, want 2 (cylinder by the predict, stenosis by the campaign) and 1", a, hits)
	}

	resp, data := postJSON(t, ts.URL+"/v1/predict",
		`{"workload":{"geometry":"stenosis","scale":5},"systems":["CSP-2"],"ranks":[8]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict on the campaign's shape: %d (%s)", resp.StatusCode, data)
	}
	if a, _ := builds(s); a != 2 {
		t.Errorf("the campaign's lattice was built again for a request: %v builds", a)
	}
	var hr HealthResponse
	getJSON(t, ts.URL+"/v1/healthz", &hr)
	if hr.Anatomies != 2 {
		t.Errorf("healthz reports %d anatomies, want 2", hr.Anatomies)
	}
}
