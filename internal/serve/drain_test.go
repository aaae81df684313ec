package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpedge"
)

// TestConcurrentDrain races campaign submissions against graceful
// shutdown (run under -race in CI): campaigns accepted before Close
// must run to completion while the drain is in progress, and every
// submission arriving after intake closes must get a clean 503 — never
// a hang, never a dropped record.
func TestConcurrentDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxCampaigns: 8})

	// Park accepted campaigns inside the framework builder so they are
	// verifiably in flight when the drain begins.
	gate := make(chan struct{})
	realNew := s.campaigns.newFramework
	s.campaigns.newFramework = func(seed int64) (*core.Framework, error) {
		<-gate
		return realNew(seed)
	}

	const inflight = 3
	acks := make([]CampaignQueuedResponse, 0, inflight)
	for i := 0; i < inflight; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/campaigns", campaignSubmitBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("pre-drain submit %d: %d (%s)", i, resp.StatusCode, data)
		}
		var ack CampaignQueuedResponse
		if err := json.Unmarshal(data, &ack); err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- s.Close(context.Background()) }()

	// Close flips intake off under the manager lock before waiting, but
	// give the goroutine a moment to get there before asserting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/v1/campaigns", campaignSubmitBody)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("intake never closed after Close began")
		}
		time.Sleep(time.Millisecond)
	}

	// Hammer submissions from many goroutines mid-drain: all must shed
	// 503 while the in-flight campaigns are still parked.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, data := postJSON(t, ts.URL+"/v1/campaigns", campaignSubmitBody)
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("mid-drain submit: %d (%s), want 503", resp.StatusCode, data)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Release the parked campaigns; the patient drain must let them
	// finish and Close must return clean.
	close(gate)
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("drain returned %v with a live context", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Close never returned after campaigns released")
	}
	for _, ack := range acks {
		var st CampaignStatusResponse
		if resp := getJSON(t, ts.URL+ack.URL, &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: %d", ack.ID, resp.StatusCode)
		}
		if st.State != CampaignDone {
			t.Errorf("in-flight campaign %s ended %q (%s), want done", ack.ID, st.State, st.Error)
		}
	}
}

// TestRetryAfterJitter: 429s carry a Retry-After in [1,3] dealt from a
// per-server seeded stream — deterministic for a seed, varying across
// responses so shed clients don't retry in lockstep.
func TestRetryAfterJitter(t *testing.T) {
	a, b := httpedge.NewRetryJitter(9), httpedge.NewRetryJitter(9)
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatalf("same-seed jitter diverged at %d: %d vs %d", i, va, vb)
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
