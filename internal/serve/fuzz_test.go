package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzPaths are the /v1 endpoints that decode a request body.
var fuzzPaths = [...]string{"/v1/predict", "/v1/plan", "/v1/campaigns"}

// FuzzServeRequest posts fuzzed bodies to the three decoding endpoints
// through the handler, without a socket. Whatever the body, the handler
// must not panic, and every reply outside 2xx must be a JSON
// ErrorResponse with a message, so a client can always read why.
// Seeded from the golden request sequence and a campaign submission.
func FuzzServeRequest(f *testing.F) {
	for _, g := range goldenRequests() {
		for i, p := range fuzzPaths {
			if p == g.Path {
				f.Add(uint8(i), []byte(g.Body))
			}
		}
	}
	f.Add(uint8(2), []byte(campaignSubmitBody))
	f.Add(uint8(0), []byte(`{"workload":{"geometry":"aorta","scale":4},"ranks":[1,2],"model":"direct","tier":"auto","occupancy":0.5,"seed":3,"timeout_ms":5000}`))
	f.Add(uint8(1), []byte(`{"workload":{"geometry":"cylinder","scale":5},"ranks":8,"steps":10,"deadline_s":1e300,"tier":"tier2"}`))
	f.Add(uint8(1), []byte(`{"workload":{"geometry":"cylinder","scale":5},"ranks":9223372036854775807,"steps":9223372036854775807,"timeout_ms":9223372036854775807}`))

	s, err := New(Config{Samples: 1, DefaultSeed: 7, MaxCampaigns: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		// Interrupt any accepted campaign at its next clean point.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = s.Close(ctx)
	})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := fuzzPaths[int(route)%len(fuzzPaths)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 200 && rec.Code < 300 {
			return
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %q: status %d with Content-Type %q", path, body, rec.Code, ct)
		}
		var e ErrorResponse
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("%s %q: status %d body %q is not an ErrorResponse (%v)", path, body, rec.Code, rec.Body.String(), err)
		}
	})
}
