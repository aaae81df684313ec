package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestSoakBoundedTracing drives 100 000 /v1/predict requests through the
// handler, without a socket, and holds the process to its bounds: the
// tracer never retains more than its constant bound of spans (one span
// per request, at most one open at a time), the heap-in-use gauge of
// /v1/telemetry stays flat from the 20 000th request to the
// last, and a shed request's trace, which the edge marks to keep,
// survives every fast 200 after it. Under -race the run takes about
// 13 s and checks nothing the plain run does not, so it is skipped
// there; CI's "Soak test" step runs it once without the detector.
func TestSoakBoundedTracing(t *testing.T) {
	if raceDetector {
		t.Skip("100 000 requests under -race; run without the race detector")
	}
	const (
		requests  = 100_000
		flatFrom  = 20_000
		heapSlack = 4 << 20 // bytes; a leak of one span per request adds ~20 MB
	)
	tracer := obs.NewTracer(3)
	s, err := New(Config{Samples: 1, DefaultSeed: 7, MaxInflight: 1, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	predict := func() (int, string) {
		w := &discardWriter{h: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody)))
		return w.code, w.h.Get("X-Trace-Id")
	}
	heapInUse := func() float64 {
		runtime.GC()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/telemetry", nil))
		var snap obs.TelemetrySnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("telemetry: %v", err)
		}
		for _, m := range snap.Metrics {
			if m.Name == "go_heap_inuse_bytes" {
				return m.Value
			}
		}
		t.Fatal("telemetry has no go_heap_inuse_bytes")
		return 0
	}

	// A 429: one request holds the only inflight slot while a second
	// arrives.
	entered, release := make(chan struct{}), make(chan struct{})
	s.hookAfterAcquire = func() {
		close(entered)
		<-release
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		predict()
	}()
	<-entered
	code, shed := predict()
	close(release)
	wg.Wait()
	s.hookAfterAcquire = nil
	if code != http.StatusTooManyRequests || shed == "" {
		t.Fatalf("saturated limiter answered %d (trace %q), want a traced 429", code, shed)
	}
	retained := func(trace string) bool {
		for _, sp := range tracer.Spans() {
			if sp.TraceID == trace {
				return true
			}
		}
		return false
	}

	bound := obs.RecentTraces + obs.TailTraces + 1
	var heapStart float64
	for i := 1; i <= requests; i++ {
		if code, _ := predict(); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if i%1000 == 0 {
			if n := tracer.Len(); n > bound {
				t.Fatalf("after %d requests the tracer retains %d spans, bound %d", i, n, bound)
			}
		}
		switch i {
		case 10_000:
			if !retained(shed) {
				t.Fatalf("the 429's trace did not survive 10 000 fast 200s")
			}
		case flatFrom:
			heapStart = heapInUse()
		}
	}
	heapEnd := heapInUse()
	t.Logf("heap in use %.1f MB after %d requests, %.1f MB after %d; %d spans retained",
		heapStart/(1<<20), flatFrom, heapEnd/(1<<20), requests, tracer.Len())
	if heapEnd-heapStart > heapSlack {
		t.Errorf("heap in use grew %.1f MB from request %d to %d", (heapEnd-heapStart)/(1<<20), flatFrom, requests)
	}
	if !retained(shed) {
		t.Errorf("the 429's trace did not survive %d fast 200s", requests)
	}
}
