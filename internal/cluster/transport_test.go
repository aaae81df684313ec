package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestHandlerTransportHonorsContext pins the deadline contract that
// real *http.Transport gives callers: a handler that outlives the
// request context must not stall RoundTrip — replica polls and
// forwards rely on their WithTimeout actually firing.
func TestHandlerTransportHonorsContext(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	hung := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	})
	tr := NewHandlerTransport(hung)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://r0/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err == nil {
		_ = resp.Body.Close()
		t.Fatal("RoundTrip returned a response from a hung handler; want ctx error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RoundTrip error = %v, want context.DeadlineExceeded", err)
	}
}

// TestHandlerTransportPreCancelledContext: an already-dead context
// fails fast without ever invoking the handler, matching net/http.
func TestHandlerTransportPreCancelledContext(t *testing.T) {
	var served atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Store(true)
	})
	tr := NewHandlerTransport(h)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://r0/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(req); !errors.Is(err, context.Canceled) {
		t.Fatalf("RoundTrip error = %v, want context.Canceled", err)
	}
	if served.Load() {
		t.Error("handler ran despite a pre-cancelled request context")
	}
}
