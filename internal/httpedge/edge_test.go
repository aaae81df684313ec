package httpedge

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRouteRecordsSpanAndMetrics: one wrapped route books each request
// on <prefix>_requests_total by code and <prefix>_latency_seconds, names
// its span <span prefix><endpoint> with the code attached, and echoes
// the span's trace ID.
func TestRouteRecordsSpanAndMetrics(t *testing.T) {
	reg, tracer := obs.NewRegistry(), obs.NewTracer(3)
	e := New(reg, tracer, "edge", "hop ", NewRetryJitter(3))
	h := e.Route("/v1/thing", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("missing") != "" {
			WriteError(w, http.StatusNotFound, "no such thing")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]int{"n": 1})
	})
	for _, target := range []string{"/v1/thing", "/v1/thing", "/v1/thing?missing=1"} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Header().Get("X-Trace-Id") == "" {
			t.Errorf("%s: no X-Trace-Id", target)
		}
	}

	ok := reg.Counter("edge_requests_total", obs.L("endpoint", "/v1/thing"), obs.L("code", "200")).Value()
	missing := reg.Counter("edge_requests_total", obs.L("endpoint", "/v1/thing"), obs.L("code", "404")).Value()
	if ok != 2 || missing != 1 {
		t.Errorf("requests_total 200=%v 404=%v, want 2 and 1", ok, missing)
	}
	if n := reg.Histogram("edge_latency_seconds", nil, obs.L("endpoint", "/v1/thing")).Count(); n != 3 {
		t.Errorf("latency histogram holds %d observations, want 3", n)
	}
	spans := tracer.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	for i, want := range []string{"200", "200", "404"} {
		if sp := spans[i]; sp.Name != "hop /v1/thing" || sp.Attr("code") != want || !sp.Ended {
			t.Errorf("span %d is %q code %q ended %v, want hop /v1/thing code %s ended", i, sp.Name, sp.Attr("code"), sp.Ended, want)
		}
	}
}

// TestRouteKeepsFailedTraces: a 500, a 429 and a deadline hit's 504 stay
// retained after two rings' worth of fast 200s; a 404 does not. Two,
// because the slow sample of the 404's window outlives one ring.
func TestRouteKeepsFailedTraces(t *testing.T) {
	tracer := obs.NewTracer(4)
	e := New(obs.NewRegistry(), tracer, "edge", "hop ", NewRetryJitter(4))
	h := e.Route("/v1/thing", func(w http.ResponseWriter, r *http.Request) {
		status, _ := strconv.Atoi(r.URL.Query().Get("status"))
		if status == 0 {
			status = http.StatusOK
		}
		WriteJSON(w, status, map[string]int{"n": 1})
	})
	serve := func(target string) string {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec.Header().Get("X-Trace-Id")
	}
	kept := []string{
		serve("/v1/thing?status=500"),
		serve("/v1/thing?status=429"),
		serve("/v1/thing?status=504"),
	}
	dropped := serve("/v1/thing?status=404")
	for i := 0; i < 2*obs.RecentTraces; i++ {
		serve("/v1/thing")
	}
	retained := map[string]bool{}
	for _, sp := range tracer.Spans() {
		retained[sp.TraceID] = true
	}
	for i, id := range kept {
		if !retained[id] {
			t.Errorf("kept request %d (trace %s) evicted by fast 200s", i, id)
		}
	}
	if retained[dropped] {
		t.Errorf("a 404's trace was kept")
	}
}

// TestRetryAfterOnlyWhereMissing: a 429 written without a Retry-After
// gets the next value of the edge's jitter stream; one that already
// carries a value — a replica's 429 relayed by the router — keeps it and
// leaves the stream where it was, so the edge's own sequence is the same
// whatever it relays.
func TestRetryAfterOnlyWhereMissing(t *testing.T) {
	e := New(obs.NewRegistry(), obs.NewTracer(5), "edge", "hop ", NewRetryJitter(5))
	h := e.Route("/v1/busy", func(w http.ResponseWriter, r *http.Request) {
		if v := r.URL.Query().Get("upstream"); v != "" {
			w.Header().Set("Retry-After", v)
		}
		WriteError(w, http.StatusTooManyRequests, "busy")
	})
	want := NewRetryJitter(5)
	for i, target := range []string{"/v1/busy", "/v1/busy?upstream=9", "/v1/busy", "/v1/busy?upstream=7", "/v1/busy"} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, target, nil))
		expect := httptest.NewRequest(http.MethodPost, target, nil).URL.Query().Get("upstream")
		if expect == "" {
			expect = strconv.Itoa(want.Next())
		}
		if got := rec.Header().Get("Retry-After"); got != expect {
			t.Errorf("reply %d (%s): Retry-After %q, want %q", i, target, got, expect)
		}
	}
}

// TestWriteJSONRefusesNonFinite: a value encoding/json cannot carry (a
// NaN field) is encoded before the header goes out, so the reply is a
// 500 whose body is an ErrorResponse, never the caller's status with an
// empty body; every reply carries its Content-Length.
func TestWriteJSONRefusesNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, struct {
		X float64 `json:"x"`
	}{math.NaN()})
	var body ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d body %q (%v), want 500 and an ErrorResponse", rec.Code, rec.Body, err)
	}
	if !strings.Contains(body.Error, "NaN") {
		t.Errorf("error %q does not name the NaN", body.Error)
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Errorf("Content-Length %q, body is %s bytes", got, want)
	}

	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, map[string]int{"n": 1})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"n\":1}\n" || rec.Header().Get("Content-Length") != "8" {
		t.Errorf("status %d body %q Content-Length %q", rec.Code, rec.Body, rec.Header().Get("Content-Length"))
	}
}
