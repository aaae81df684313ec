package cluster

import (
	"fmt"
	"net/http"
	"testing"
	"time"
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
