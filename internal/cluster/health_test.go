package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestPollNowAfterClose: once the cluster is closed, manual polls are
// inert. Before polls were rooted in the cluster's base context, a
// post-Close sweep against a dead transport would record bogus failures
// and flip healthy replicas dead.
func TestPollNowAfterClose(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	tr := NewHandlerTransport(h)
	c, err := New(Config{
		Replicas: []Replica{{Name: "r0", BaseURL: "http://r0", Transport: tr}},
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Close() // polls would now fail, if any still ran
	for i := 0; i < 5; i++ {
		if snap := c.PollNow(); snap != nil {
			t.Fatalf("post-Close poll published an aggregate: %+v", snap)
		}
	}
	if st := c.Replicas()[0].State; st != "healthy" {
		t.Errorf("replica marked %q by post-Close sweeps, want healthy", st)
	}
}

// TestClusterCloseCancelsInflightProbe: Close must not wait out a poll
// stuck in a hung replica. The base-context cancellation reaches
// through the poll loop into the in-flight RoundTrip, so shutdown is
// prompt even with a generous HealthTimeout.
func TestClusterCloseCancelsInflightProbe(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	hung := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	})
	c, err := New(Config{
		Replicas:       []Replica{{Name: "r0", BaseURL: "http://r0", Transport: NewHandlerTransport(hung)}},
		Seed:           11,
		HealthInterval: 2 * time.Millisecond,
		HealthTimeout:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the poll loop wedge a request inside the hung handler.
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		_ = c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked behind a hung poll")
	}
}

// TestConcurrentRefreshesShareOneSweep: refresh GETs that arrive while a
// sweep is in flight wait for it instead of starting their own. Every
// replica is fetched once and takes one strike, so one transient failure
// at the default threshold of 2 kills nothing. Each GET used to fetch
// every replica and add its own strike: two concurrent GETs were enough
// to mark a replica dead.
func TestConcurrentRefreshesShareOneSweep(t *testing.T) {
	const gets = 8
	var fetches [2]atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock)
	failing := func(i int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if fetches[i].Add(1) == 1 && i == 0 {
				close(entered) // hold the first sweep open on r0
				<-release
			}
			http.Error(w, "transient", http.StatusServiceUnavailable)
		})
	}
	reg := obs.NewRegistry()
	c, err := New(Config{
		Replicas: []Replica{
			{Name: "r0", BaseURL: "http://r0", Transport: NewHandlerTransport(failing(0))},
			{Name: "r1", BaseURL: "http://r1", Transport: NewHandlerTransport(failing(1))},
		},
		Seed:     11,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ts := httptest.NewServer(c.Router().Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	refresh := func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/v1/cluster/telemetry?refresh=1")
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("refresh GET: %d", resp.StatusCode)
		}
	}
	wg.Add(1)
	go refresh()
	<-entered
	for i := 1; i < gets; i++ {
		wg.Add(1)
		go refresh()
	}
	// Release the sweep only once every later GET has joined it.
	joined := reg.Counter("cluster_poll_coalesced_total")
	for deadline := time.Now().Add(10 * time.Second); joined.Value() < gets-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v of %d GETs joined the sweep in flight", joined.Value(), gets-1)
		}
	}
	unblock()
	wg.Wait()

	for i := range fetches {
		if n := fetches[i].Load(); n != 1 {
			t.Errorf("r%d fetched %d times by %d concurrent GETs, want 1", i, n, gets)
		}
	}
	for _, r := range c.Replicas() {
		if r.State != "healthy" || r.Failures != 1 {
			t.Errorf("%s is %s with %d strikes after one shared sweep, want healthy with 1", r.Name, r.State, r.Failures)
		}
	}
}
