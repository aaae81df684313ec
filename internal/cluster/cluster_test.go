package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// newReplica builds one real serve.Server with cheap calibrations
// (Samples 1) and LRUs of cacheEntries (0: serve's default).
func newReplica(t *testing.T, cacheEntries int) *serve.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{Samples: 1, DefaultSeed: 7, CacheEntries: cacheEntries})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// newServeCluster builds n newReplica servers behind a router, all
// in-process. The returned transports are the kill seam; the servers
// allow drain tests to exercise serve's own shutdown semantics through
// the router.
func newServeCluster(t *testing.T, n, cacheEntries int, mutate func(*Config)) (*Cluster, []*HandlerTransport, []*serve.Server, string) {
	t.Helper()
	transports := make([]*HandlerTransport, n)
	servers := make([]*serve.Server, n)
	replicas := make([]Replica, n)
	for i := range replicas {
		srv := newReplica(t, cacheEntries)
		servers[i] = srv
		name := fmt.Sprintf("r%d", i)
		transports[i] = NewHandlerTransport(srv.Handler())
		replicas[i] = Replica{Name: name, BaseURL: "http://" + name, Transport: transports[i]}
	}
	cfg := Config{Replicas: replicas, Seed: 11, DefaultSeed: 7}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ts := httptest.NewServer(c.Router().Handler())
	t.Cleanup(ts.Close)
	return c, transports, servers, ts.URL
}

// predictPass posts predictBodyFor(1), …, predictBodyFor(keys) in order:
// one calibration key each, all on one workload and one system. It
// returns the pass's cache misses and hits and the X-Replica of each
// reply, in seed order.
func predictPass(t *testing.T, url string, keys int) (misses, hits int, replicas []string) {
	t.Helper()
	for seed := 1; seed <= keys; seed++ {
		resp, data := doPost(t, url+"/v1/predict", predictBodyFor(seed), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s)", seed, resp.StatusCode, data)
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		misses += pr.CacheMisses
		hits += pr.CacheHits
		replicas = append(replicas, resp.Header.Get("X-Replica"))
	}
	return misses, hits, replicas
}

// TestClusterDisjointWarmCaches is the sharding contract end to end:
// K distinct calibration keys cost exactly K cache misses fleet-wide on
// the first pass (no key calibrated twice, because exactly one replica
// owns it) and zero misses on the second (every key warm somewhere).
//
// The capacity case is the cluster's whole bet, counted: N replicas are
// N disjoint caches, not N copies of one. With per-replica LRUs of c
// entries, K > c keys of which no replica owns more than c stay warm on
// the fleet, while one server with the same c misses every key of the
// same cyclic pass: by the time a key comes round again, K − 1 ≥ c other
// keys have pushed it out of the LRU.
func TestClusterDisjointWarmCaches(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		replicas, cacheEntries, k int
	}{
		{"default caches", 3, 0, 8},
		{"capacity", 4, 4, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, url := newServeCluster(t, tc.replicas, tc.cacheEntries, nil)
			misses, hits, owners := predictPass(t, url, tc.k)
			if misses != tc.k || hits != 0 {
				t.Errorf("cold pass: %d misses %d hits, want %d/0", misses, hits, tc.k)
			}
			misses, hits, again := predictPass(t, url, tc.k)
			if misses != 0 || hits != tc.k {
				t.Errorf("warm pass: %d misses %d hits, want 0/%d", misses, hits, tc.k)
			}
			if !slices.Equal(owners, again) {
				t.Errorf("keys moved between passes: %v -> %v", owners, again)
			}
			owned := make(map[string]int)
			for _, rep := range owners {
				owned[rep]++
			}
			if len(owned) < 2 {
				t.Errorf("keys did not spread: %v", owners)
			}
			if tc.cacheEntries == 0 {
				return
			}

			// The case's preconditions, so that a ring change fails here
			// instead of quietly making the keyset fit one replica.
			if tc.k <= tc.cacheEntries {
				t.Errorf("%d keys fit one replica's %d entries", tc.k, tc.cacheEntries)
			}
			for rep, n := range owned {
				if n > tc.cacheEntries {
					t.Errorf("%s owns %d keys, more than its %d entries", rep, n, tc.cacheEntries)
				}
			}

			single := httptest.NewServer(newReplica(t, tc.cacheEntries).Handler())
			defer single.Close()
			predictPass(t, single.URL, tc.k)
			if misses, hits, _ := predictPass(t, single.URL, tc.k); misses != tc.k || hits != 0 {
				t.Errorf("single replica's warm pass: %d misses %d hits, want %d/0", misses, hits, tc.k)
			}
		})
	}
}

// TestClusterFailoverE2E is the acceptance scenario: with one of three
// replicas killed mid-run, the router reroutes its ring segment and the
// run completes with zero client-visible 5xx — the in-flight retry is
// transparent, and health marks the corpse dead so later requests never
// touch it.
func TestClusterFailoverE2E(t *testing.T) {
	c, transports, _, url := newServeCluster(t, 3, 0, nil)

	const keys = 6
	// Warm every key so the steady-state run is cache-hot.
	for seed := 1; seed <= keys; seed++ {
		if resp, data := doPost(t, url+"/v1/predict", predictBodyFor(seed), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup seed %d: %d (%s)", seed, resp.StatusCode, data)
		}
	}

	const (
		workers  = 4
		perGoro  = 40
		killIter = 10
	)
	var non2xx atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				if w == 0 && i == killIter {
					killOnce.Do(func() { transports[2].Close() })
				}
				seed := (w*perGoro+i)%keys + 1
				resp, err := http.Post(url+"/v1/predict", "application/json",
					strings.NewReader(predictBodyFor(seed)))
				if err != nil {
					non2xx.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					non2xx.Add(1)
				}
				if err := drainAndClose(resp); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()

	if n := non2xx.Load(); n != 0 {
		t.Errorf("%d client-visible non-200 responses during failover, want 0", n)
	}
	// Forward failures alone must have declared the corpse dead and
	// rebalanced its arcs to the survivors.
	if st, _ := c.set.state("r2"); st != StateDead {
		t.Errorf("r2 state %v after failed forwards, want dead", st)
	}
	if members := c.Ring().Members(); len(members) != 2 {
		t.Errorf("ring members after failover: %v", members)
	}
	for seed := 1; seed <= keys; seed++ {
		resp, data := doPost(t, url+"/v1/predict", predictBodyFor(seed), nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("post-failover seed %d: %d (%s)", seed, resp.StatusCode, data)
		}
		if rep := resp.Header.Get("X-Replica"); rep == "r2" {
			t.Errorf("post-failover seed %d routed to dead replica", seed)
		}
	}
}

func drainAndClose(resp *http.Response) error {
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		if cerr := resp.Body.Close(); cerr != nil {
			return cerr
		}
		return err
	}
	return resp.Body.Close()
}

// TestClusterCampaignLifecycle: campaigns submitted through the router
// carry replica-qualified IDs, and status polls route back to the
// owner through to completion.
func TestClusterCampaignLifecycle(t *testing.T) {
	_, _, _, url := newServeCluster(t, 3, 0, nil)

	body := `{"backend":"serial","config":{
	  "seed": 3, "budget_usd": 1.0, "objective": "min-cost",
	  "jobs": [{"name": "smoke", "geometry": "cylinder", "scale": 5, "ranks": 8, "steps": 200}]}}`
	resp, data := doPost(t, url+"/v1/campaigns", body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var ack struct{ ID, URL string }
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatal(err)
	}
	owner, _, ok := strings.Cut(ack.ID, ".")
	if !ok || !strings.HasPrefix(owner, "r") {
		t.Fatalf("cluster campaign ID %q not replica-qualified", ack.ID)
	}
	if resp.Header.Get("X-Replica") != owner {
		t.Errorf("ack attributed to %q, ID names %q", resp.Header.Get("X-Replica"), owner)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, data := getBody(t, url+ack.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll: %d (%s)", resp.StatusCode, data)
		}
		var st serve.CampaignStatusResponse
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == serve.CampaignDone {
			break
		}
		if st.State == serve.CampaignFailed {
			t.Fatalf("campaign failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck in %q", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if resp, _ := getBody(t, url+"/v1/campaigns/unqualified-id"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unqualified ID: %d, want 404", resp.StatusCode)
	}
	if resp, _ := getBody(t, url+"/v1/campaigns/ghost.c-000001"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown replica ID: %d, want 404", resp.StatusCode)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestClusterDrainPropagates503: serve's drain semantics survive the
// router. A replica whose serve.Server has begun shutdown answers new
// campaign submissions with 503; the router relays it untouched (503 is
// flow control, not a transport failure — no retry, no masking).
func TestClusterDrainPropagates503(t *testing.T) {
	c, _, servers, url := newServeCluster(t, 2, 0, nil)

	// Close both serve servers: wherever the submission routes, the
	// answer must be the replica's own 503.
	for _, s := range servers {
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	body := `{"backend":"serial","config":{
	  "seed": 3, "budget_usd": 1.0,
	  "jobs": [{"name": "late", "geometry": "cylinder", "scale": 5, "ranks": 8, "steps": 100}]}}`
	resp, data := doPost(t, url+"/v1/campaigns", body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to draining fleet: %d (%s), want 503", resp.StatusCode, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
		t.Errorf("503 body malformed: %s", data)
	}
	// Predictions still work on a draining fleet — drain stops intake of
	// new async work, not the hot stateless path.
	if resp, data := doPost(t, url+"/v1/predict", predictBodyFor(1), nil); resp.StatusCode != http.StatusOK {
		t.Errorf("predict on draining fleet: %d (%s)", resp.StatusCode, data)
	}
	_ = c
}

// TestClusterShed429Propagates: a replica's own 429 (inflight limiter)
// reaches the client through the router with its Retry-After intact —
// replica flow control is never retried into a second replica, which
// would defeat per-replica load shedding.
func TestClusterShed429Propagates(t *testing.T) {
	// A stub replica that always sheds.
	shed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/telemetry" {
			fmt.Fprint(w, `{}`)
			return
		}
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"server saturated"}`)
	})
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"replica":"calm"}`)
	})
	c, err := New(Config{
		Replicas: []Replica{
			{Name: "shedding", BaseURL: "http://shedding", Transport: NewHandlerTransport(shed)},
			{Name: "calm", BaseURL: "http://calm", Transport: NewHandlerTransport(ok)},
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ts := httptest.NewServer(c.Router().Handler())
	t.Cleanup(ts.Close)

	// Find a seed owned by the shedding replica.
	seed := 0
	for s := 1; s < 300; s++ {
		if c.Ring().Owner(fmt.Sprintf("CSP-2|cylinder@5|%d|tier1", s)) == "shedding" {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no key owned by shedding replica")
	}
	resp, data := doPost(t, ts.URL+"/v1/predict", predictBodyFor(seed), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want relayed 429", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After %q, want replica's own %q", got, "2")
	}
	if got := resp.Header.Get("X-Replica"); got != "shedding" {
		t.Errorf("attributed to %q", got)
	}
}
