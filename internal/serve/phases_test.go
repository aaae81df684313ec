package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// builds reads how many anatomies and entries the server has built: the
// miss counters of its two caches.
func builds(s *Server) (anatomies, entries float64) {
	return s.anatomyLookups[cacheMiss].Value(), s.entryLookups[cacheMiss].Value()
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
	if rest := s.anatomyLookups[cacheHit].Value() + s.anatomyLookups[cacheCoalesced].Value(); rest != clients-1 {
		t.Errorf("%v anatomy lookups hit or coalesced, want %d", rest, clients-1)
	}
}
