package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpedge"
)

// echoReplica is a stub replica handler that answers every /v1 path
// with its own name — enough to observe routing decisions without
// paying for calibrations.
func echoReplica(name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"replica":%q,"path":%q}`, name, r.URL.Path)
	})
}

// state reports a replica's current lifecycle state.
func (rs *replicaSet) state(name string) (ReplicaState, bool) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	rec, ok := rs.replicas[name]
	if !ok {
		return StateDead, false
	}
	return rec.state, true
}

// sourceOK reports whether snap's Sources row for name merged.
func sourceOK(t *testing.T, snap *ClusterTelemetryResponse, name string) bool {
	t.Helper()
	for _, s := range snap.Sources {
		if s.Name == name {
			return s.OK
		}
	}
	t.Fatalf("no sources row for %s in %+v", name, snap.Sources)
	return false
}

// newEchoCluster builds a cluster of n stub replicas plus its httptest
// front end. Returns the cluster, the per-replica transports (the kill
// seam), and the router base URL.
func newEchoCluster(t *testing.T, n int, mutate func(*Config)) (*Cluster, []*HandlerTransport, string) {
	t.Helper()
	transports := make([]*HandlerTransport, n)
	replicas := make([]Replica, n)
	for i := range replicas {
		name := fmt.Sprintf("r%d", i)
		transports[i] = NewHandlerTransport(echoReplica(name))
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
	return c, transports, ts.URL
}

func predictBodyFor(seed int) string {
	return fmt.Sprintf(`{"workload":{"geometry":"cylinder","scale":5},"systems":["CSP-2"],"ranks":[4],"seed":%d}`, seed)
}

func doPost(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestRouterShardsByCalibrationKey: the same key always lands on the
// same replica, distinct keys spread across the fleet, and the
// placement matches the ring's own answer for the derived shard key.
func TestRouterShardsByCalibrationKey(t *testing.T) {
	c, _, url := newEchoCluster(t, 3, nil)

	owners := make(map[int]string)
	distinct := make(map[string]bool)
	for seed := 1; seed <= 24; seed++ {
		resp, data := doPost(t, url+"/v1/predict", predictBodyFor(seed), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s)", seed, resp.StatusCode, data)
		}
		rep := resp.Header.Get("X-Replica")
		if rep == "" {
			t.Fatal("response missing X-Replica attribution")
		}
		wantKey := fmt.Sprintf("CSP-2|cylinder@5|%d|tier1", seed)
		if want := c.Ring().Owner(wantKey); rep != want {
			t.Errorf("seed %d served by %s, ring owner of %q is %s", seed, rep, wantKey, want)
		}
		owners[seed] = rep
		distinct[rep] = true
	}
	if len(distinct) < 2 {
		t.Errorf("24 keys all landed on one replica: %v", distinct)
	}
	// Stability: a second pass routes identically.
	for seed := 1; seed <= 24; seed++ {
		resp, _ := doPost(t, url+"/v1/predict", predictBodyFor(seed), nil)
		if rep := resp.Header.Get("X-Replica"); rep != owners[seed] {
			t.Errorf("seed %d moved %s -> %s between passes", seed, owners[seed], rep)
		}
	}
}

// TestRouterDefaultSeedMatchesExplicit: a request omitting seed must
// shard exactly like one naming the configured default — otherwise the
// same calibration would be cached on two replicas.
func TestRouterDefaultSeedMatchesExplicit(t *testing.T) {
	_, _, url := newEchoCluster(t, 3, nil)

	noSeed := `{"workload":{"geometry":"cylinder","scale":5},"systems":["CSP-2"],"ranks":[4]}`
	resp1, _ := doPost(t, url+"/v1/predict", noSeed, nil)
	resp2, _ := doPost(t, url+"/v1/predict", predictBodyFor(7), nil) // DefaultSeed: 7
	if a, b := resp1.Header.Get("X-Replica"), resp2.Header.Get("X-Replica"); a != b {
		t.Errorf("default-seed request on %s, explicit seed 7 on %s", a, b)
	}
}

// TestRouterRetriesOnceAroundRing: a dead owner's requests transparently
// fail over to the ring successor with no client-visible error; the
// retry counter records it.
func TestRouterRetriesOnceAroundRing(t *testing.T) {
	c, transports, url := newEchoCluster(t, 3, nil)

	// Find a seed owned by r1, then kill r1.
	victim := "r1"
	seed := 0
	for s := 1; s < 200; s++ {
		if c.Ring().Owner(fmt.Sprintf("CSP-2|cylinder@5|%d|tier1", s)) == victim {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no key owned by r1 in 200 seeds")
	}
	transports[1].Close()

	resp, data := doPost(t, url+"/v1/predict", predictBodyFor(seed), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: status %d (%s)", resp.StatusCode, data)
	}
	got := resp.Header.Get("X-Replica")
	want := c.Ring().Successors(fmt.Sprintf("CSP-2|cylinder@5|%d|tier1", seed), 2)[1]
	if got != want {
		t.Errorf("failover served by %s, want ring successor %s", got, want)
	}
}

// TestRouterAllReplicasDead: both the owner and its successor down
// yields one 502, and an empty ring yields 503.
func TestRouterAllReplicasDead(t *testing.T) {
	c, transports, url := newEchoCluster(t, 2, func(cfg *Config) { cfg.HealthFailures = 100 })
	for _, tr := range transports {
		tr.Close()
	}
	resp, _ := doPost(t, url+"/v1/predict", predictBodyFor(1), nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-dead status %d, want 502", resp.StatusCode)
	}
	// Low threshold version: once health declares both dead the ring is
	// empty and the router sheds with 503 instead of trying at all.
	c.set.setState("r0", StateDead)
	c.set.setState("r1", StateDead)
	resp, _ = doPost(t, url+"/v1/predict", predictBodyFor(1), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-ring status %d, want 503", resp.StatusCode)
	}
}

// TestTenantQuota: per-tenant token buckets admit burst then shed 429
// with a jittered Retry-After in [1,3]; a different tenant has its own
// bucket; quota applies before any replica sees the request.
func TestTenantQuota(t *testing.T) {
	_, _, url := newEchoCluster(t, 2, func(cfg *Config) {
		cfg.TenantRate = 1e-9 // effectively no refill within the test
		cfg.TenantBurst = 2
	})

	alice := map[string]string{"X-Tenant": "alice"}
	for i := 0; i < 2; i++ {
		if resp, data := doPost(t, url+"/v1/predict", predictBodyFor(1), alice); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: %d (%s)", i, resp.StatusCode, data)
		}
	}
	resp, _ := doPost(t, url+"/v1/predict", predictBodyFor(1), alice)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 3 {
		t.Errorf("Retry-After %q, want integer in [1,3]", resp.Header.Get("Retry-After"))
	}
	if resp, _ := doPost(t, url+"/v1/predict", predictBodyFor(1), map[string]string{"X-Tenant": "bob"}); resp.StatusCode != http.StatusOK {
		t.Errorf("bob sharing alice's bucket: %d", resp.StatusCode)
	}
}

// TestRetryJitterDeterministic: two jitters with one seed deal the same
// backoff sequence; all values stay in [1, spread].
func TestRetryJitterDeterministic(t *testing.T) {
	a, b := httpedge.NewRetryJitter(5, 3), httpedge.NewRetryJitter(5, 3)
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatalf("jitter diverged at %d: %d vs %d", i, va, vb)
		}
		if va < 1 || va > 3 {
			t.Fatalf("jitter %d outside [1,3]", va)
		}
		seen[va] = true
	}
	if len(seen) < 2 {
		t.Errorf("jitter never varied: %v", seen)
	}
}

// TestHealthCheckerKillsAndRevives: consecutive failed polls remove a
// replica from the ring; one successful poll restores it with identical
// placement (Add is deterministic) and merges its snapshot again.
func TestHealthCheckerKillsAndRevives(t *testing.T) {
	c, transports, _ := newEchoCluster(t, 3, nil)

	keyOwner := func() map[string]string {
		m := make(map[string]string)
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%d", i)
			m[k] = c.Ring().Owner(k)
		}
		return m
	}
	before := keyOwner()

	transports[2].Close()
	c.PollNow() // failure 1
	if st, _ := c.set.state("r2"); st != StateHealthy {
		t.Fatalf("r2 dead after one failure (threshold 2): %v", st)
	}
	snap := c.PollNow() // failure 2 -> dead
	if st, _ := c.set.state("r2"); st != StateDead {
		t.Fatalf("r2 state %v after threshold, want dead", st)
	}
	if sourceOK(t, snap, "r2") || !sourceOK(t, snap, "r0") || !sourceOK(t, snap, "r1") {
		t.Fatalf("sources after kill: %+v", snap.Sources)
	}
	if got := c.Ring().Members(); len(got) != 2 {
		t.Fatalf("ring still has %v", got)
	}
	for k, owner := range before {
		if owner != "r2" && c.Ring().Owner(k) != owner {
			t.Fatalf("key %q moved off surviving owner %q during failover", k, owner)
		}
	}

	transports[2].Reopen()
	snap = c.PollNow()
	if st, _ := c.set.state("r2"); st != StateHealthy {
		t.Fatalf("r2 state %v after revival poll, want healthy", st)
	}
	if !sourceOK(t, snap, "r2") {
		t.Fatalf("revived r2 not merged: %+v", snap.Sources)
	}
	after := keyOwner()
	for k := range before {
		if before[k] != after[k] {
			t.Fatalf("placement changed across kill/revive cycle: %q %q -> %q", k, before[k], after[k])
		}
	}
}

// TestHealthBackgroundLoop: a configured interval polls without manual
// ticks, and each tick both judges health and publishes the aggregate.
func TestHealthBackgroundLoop(t *testing.T) {
	c, transports, _ := newEchoCluster(t, 2, func(cfg *Config) {
		cfg.HealthInterval = 5 * time.Millisecond
	})
	transports[0].Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st, _ := c.set.state("r0"); st == StateDead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background health never declared r0 dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.poller.Last() == nil {
		t.Fatal("background loop published no telemetry aggregate")
	}
	// On-demand polls race the loop's ticks (run under -race).
	for i := 0; i < 5; i++ {
		if snap := c.PollNow(); sourceOK(t, snap, "r0") || !sourceOK(t, snap, "r1") {
			t.Fatalf("sources with r0 down: %+v", snap.Sources)
		}
	}
}

// TestDrainEndpointAndTopology: draining via the admin endpoint empties
// the replica's arcs (new traffic avoids it) while topology and healthz
// report the state; undrain restores it. A drained replica is still
// polled and merged, and no poll verdict un-drains or kills it.
func TestDrainEndpointAndTopology(t *testing.T) {
	c, transports, url := newEchoCluster(t, 3, nil)

	resp, data := doPost(t, url+"/v1/cluster/drain?replica=r0", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d (%s)", resp.StatusCode, data)
	}
	for seed := 1; seed <= 30; seed++ {
		resp, _ := doPost(t, url+"/v1/predict", predictBodyFor(seed), nil)
		if rep := resp.Header.Get("X-Replica"); rep == "r0" {
			t.Fatalf("seed %d routed to draining replica", seed)
		}
	}

	var topo TopologyResponse
	resp2, err := http.Get(url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	if err := resp2.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if len(topo.RingMembers) != 2 || topo.Replicas[0].State != "draining" {
		t.Errorf("topology after drain: members %v states %+v", topo.RingMembers, topo.Replicas)
	}
	if share := topo.KeyShare["r1"] + topo.KeyShare["r2"]; share < 0.99 {
		t.Errorf("drained topology key share %v", topo.KeyShare)
	}

	if !sourceOK(t, c.PollNow(), "r0") {
		t.Error("drained replica's snapshot not merged")
	}
	transports[0].Close()
	for i := 0; i < 3; i++ {
		c.PollNow()
	}
	transports[0].Reopen()
	c.PollNow()
	if st, _ := c.set.state("r0"); st != StateDraining {
		t.Fatalf("polls moved drained r0 to %v", st)
	}

	if resp, data := doPost(t, url+"/v1/cluster/drain?replica=r0&undrain=1", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain: %d (%s)", resp.StatusCode, data)
	}
	if resp, _ := doPost(t, url+"/v1/cluster/drain?replica=ghost", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("drain unknown replica: %d, want 404", resp.StatusCode)
	}
}

// TestRouterHealthz: ok while any replica lives, degraded 503 when none
// do.
func TestRouterHealthz(t *testing.T) {
	c, _, url := newEchoCluster(t, 2, nil)

	var hr RouterHealthResponse
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.Healthy != 2 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, hr)
	}

	c.set.setState("r0", StateDead)
	c.set.setState("r1", StateDead)
	resp, err = http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-dead healthz %d, want 503", resp.StatusCode)
	}
}

// TestRouterInflightShed: with one forwarding slot held, the next
// planning request sheds 429 at the router without reaching a replica.
func TestRouterInflightShed(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/telemetry" {
			once.Do(func() { close(entered) })
			<-release
		}
		fmt.Fprint(w, `{"replica":"slow"}`)
	})
	c, err := New(Config{
		Replicas:    []Replica{{Name: "slow", BaseURL: "http://slow", Transport: NewHandlerTransport(slow)}},
		MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ts := httptest.NewServer(c.Router().Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(predictBodyFor(1)))
		if err != nil {
			t.Errorf("slot-holding request: %v", err)
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

	resp, _ := doPost(t, ts.URL+"/v1/predict", predictBodyFor(2), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	close(release)
	wg.Wait()
}

// TestRouterBodyTooLarge: the router's own cap answers 413 before
// forwarding.
func TestRouterBodyTooLarge(t *testing.T) {
	_, _, url := newEchoCluster(t, 2, func(cfg *Config) { cfg.MaxBodyBytes = 64 })
	resp, _ := doPost(t, url+"/v1/predict", strings.Repeat("x", 200), nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestShardKeyFallbacks: undecodable bodies and multi-system requests
// still derive stable keys.
func TestShardKeyFallbacks(t *testing.T) {
	rt := &Router{cfg: Config{DefaultSeed: 7}}
	if k := rt.shardKey([]byte(`{"workload":{"geometry":"aorta","scale":6},"seed":3}`)); k != "*|aorta@6|3|tier1" {
		t.Errorf("catalog-wide key %q", k)
	}
	if k := rt.shardKey([]byte(`{"workload":{"geometry":"aorta","scale":6},"systems":["A","B"]}`)); k != "*|aorta@6|7|tier1" {
		t.Errorf("multi-system key %q", k)
	}
	if k := rt.shardKey([]byte(`{"workload":{"geometry":"aorta","scale":6},"systems":["A"]}`)); k != "A|aorta@6|7|tier1" {
		t.Errorf("single-system key %q", k)
	}
	// The tier is part of the key: different tiers shard independently,
	// matching serve's tier-qualified calibration cache.
	if k := rt.shardKey([]byte(`{"workload":{"geometry":"aorta","scale":6},"systems":["A"],"tier":"tier0"}`)); k != "A|aorta@6|7|tier0" {
		t.Errorf("tiered key %q", k)
	}
	if k := rt.shardKey([]byte(`{nope`)); k != `{nope` {
		t.Errorf("fallback key %q", k)
	}
}
