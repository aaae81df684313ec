package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/perfmodel"
)

// predictionOf builds a Prediction from raw float bits in PredictionJSON
// order: mflups, seconds_per_step, the six runtime terms, then the
// band's two edges.
func predictionOf(f [10]uint64, system, model, tier string, ranks int, extrapolated bool) perfmodel.Prediction {
	v := func(i int) float64 { return math.Float64frombits(f[i]) }
	return perfmodel.Prediction{
		System: system, Model: model, Ranks: ranks,
		MFLUPS: v(0), SecondsPerStep: v(1),
		MemS: v(2), IntraS: v(3), InterS: v(4), CPUGPUs: v(5), CommBandwidthS: v(6), CommLatencyS: v(7),
		Confidence: perfmodel.Band{LoMFLUPS: v(8), HiMFLUPS: v(9)},
		Tier:       tier, Extrapolated: extrapolated,
	}
}

// checkEncoding compares appendPrediction with encoding/json on p: the
// same bytes, or an error from both (a NaN or ±Inf field).
func checkEncoding(t *testing.T, p perfmodel.Prediction) {
	t.Helper()
	want, wantErr := json.Marshal(predictionJSON(p))
	got, err := appendPrediction([]byte("prefix"), &p)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: appendPrediction error %v, encoding/json error %v", p, err, wantErr)
	}
	if err == nil && !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%+v:\nappendPrediction %s\nencoding/json    %s", p, got[len("prefix"):], want)
	}
}

// FuzzPredictionEncoding: for any prediction, appendPrediction writes the
// bytes encoding/json writes for predictionJSON, or fails where it fails.
func FuzzPredictionEncoding(f *testing.F) {
	bits := func(xs ...float64) (out [10]uint64) {
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	seeds := []struct {
		f                   [10]uint64
		system, model, tier string
		ranks               int
		extrapolated        bool
	}{
		{bits(161.58, 2.005e-05, 1.2e-05, 0, 0, 0, 3.1e-06, 4.9e-06, 150.3, 172.9), "CSP-2", "generalized", "tier1", 512, true},
		{bits(), "", "", "", 0, false},
		{bits(math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1), 0, 0, 0, 0, 0, math.Copysign(0, -1), 0), "CSP-1", "direct", "", 1, false},
		{bits(1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e-6, -1e21, 1e-7, 1.5e-300, 1, 2), "TRC", "measured", "tier2", 65536, false},
		{bits(5e-324, math.SmallestNonzeroFloat64*3, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 123456789012345678, 0.1, 1e20, 0, 0), "CSP-2 EC", "generalized", "auto", -3, true},
		{bits(1, 2, 0, 0, 0, 0, 0, 0, 0, 7), `<&"\`, "a\x00b", "\xff\xfe", 8, false},
		{bits(1, 2), "\u2028\u2029", "é", "\x7f", 8, false},
		{bits(math.NaN(), 1), "CSP-2", "generalized", "tier1", 8, false},
		{bits(1, 1, 0, 0, 0, 0, 0, 0, math.Inf(-1), 1), "CSP-2", "generalized", "tier1", 8, false},
	}
	for _, s := range seeds {
		f.Add(s.f[0], s.f[1], s.f[2], s.f[3], s.f[4], s.f[5], s.f[6], s.f[7], s.f[8], s.f[9],
			s.system, s.model, s.tier, s.ranks, s.extrapolated)
	}
	f.Fuzz(func(t *testing.T, f0, f1, f2, f3, f4, f5, f6, f7, f8, f9 uint64,
		system, model, tier string, ranks int, extrapolated bool) {
		checkEncoding(t, predictionOf([10]uint64{f0, f1, f2, f3, f4, f5, f6, f7, f8, f9}, system, model, tier, ranks, extrapolated))
	})
}

// TestPredictionEncodingRandom runs the fuzz property over seeded
// predictions in every exponent range a model can produce and beyond:
// zeros, exponent-form boundaries, subnormals, raw bit patterns.
func TestPredictionEncodingRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	strs := []string{"", "CSP-2", "tier1", "generalized", "<&>", `"q"`, "\xff", "tab\t", "ü"}
	for i := 0; i < 20000; i++ {
		var f [10]uint64
		for j := range f {
			var x float64
			switch rng.Intn(5) {
			case 0: // zero, either sign
				x = math.Copysign(0, float64(rng.Intn(2)*2-1))
			case 1: // near the exponent-form switches
				x = []float64{1e-6, 1e21}[rng.Intn(2)] * (1 + (rng.Float64()-0.5)*1e-15)
			case 2: // raw bits
				x = math.Float64frombits(rng.Uint64())
			default: // model-like magnitudes
				x = math.Pow(10, rng.Float64()*40-30) * float64(rng.Intn(2)*2-1)
			}
			f[j] = math.Float64bits(x)
		}
		checkEncoding(t, predictionOf(f, strs[rng.Intn(len(strs))], strs[rng.Intn(len(strs))], strs[rng.Intn(len(strs))],
			rng.Intn(1<<20)-1000, rng.Intn(2) == 0))
	}
}

// batchBody is a warm predict_warm-shaped batch: one system, ranks 1…n.
func batchBody(n int) string {
	ranks := make([]string, n)
	for i := range ranks {
		ranks[i] = fmt.Sprint(i + 1)
	}
	return `{"workload":{"geometry":"cylinder","scale":6},"systems":["CSP-2"],"ranks":[` + strings.Join(ranks, ",") + `]}`
}

// serveDirect runs one request through the handler with no socket.
func serveDirect(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
	return rec
}

// TestPredictReplyMatchesStructPath: a warm 512-rank batch's reply is,
// byte for byte, what encoding/json wrote for the PredictResponse the
// handler used to build, and decodes to it.
func TestPredictReplyMatchesStructPath(t *testing.T) {
	s, err := New(Config{Samples: 1, DefaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	body := batchBody(512)
	serveDirect(s.Handler(), body) // warm both caches
	rec := serveDirect(s.Handler(), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}

	ctx := context.Background()
	a, err := s.anatomyFor(ctx, WorkloadSpec{Geometry: "cylinder", Scale: 6})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := s.entryFor(ctx, s.systems["CSP-2"], 7, perfmodel.Tier1Calibrated)
	if err != nil {
		t.Fatal(err)
	}
	want := PredictResponse{CacheHits: 1}
	for k := 1; k <= 512; k++ {
		p, err := predict(a, e, perfmodel.ModelGeneral, perfmodel.Tier1Calibrated, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		want.Predictions = append(want.Predictions, predictionJSON(p))
	}
	var wantBytes bytes.Buffer
	if err := json.NewEncoder(&wantBytes).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), wantBytes.Bytes()) {
		t.Errorf("reply differs from the struct path's encoding:\n%.300s\nwant\n%.300s", rec.Body, wantBytes.Bytes())
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
	}
	var got PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("reply decodes to a different PredictResponse than the struct path built")
	}
}

// discardWriter is a ResponseWriter that keeps no body, so an allocation
// count sees only the handler's own.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestPredictRowsAllocateNothing: once warm, a 512-rank batch allocates
// no more than a small constant beyond a 1-rank request: no allocation
// is made per row. The constant is the request side: decoding 512 ranks
// grows the body buffer and the ranks slice in doubling steps.
func TestPredictRowsAllocateNothing(t *testing.T) {
	s, err := New(Config{Samples: 1, DefaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(body string) float64 {
		run := func() {
			w := &discardWriter{h: make(http.Header)}
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
			if w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
		}
		run() // warm the caches and the reply buffer pool
		return testing.AllocsPerRun(50, run)
	}
	one, batch := allocs(batchBody(1)), allocs(batchBody(512))
	t.Logf("allocations: 1 rank %v, 512 ranks %v", one, batch)
	if batch > one+16 {
		t.Errorf("a 512-rank batch makes %v allocations against %v for one rank: some are per row", batch, one)
	}
}
