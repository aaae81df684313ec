package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestDirectRanksAboveFluidSitesIs400: the direct model decomposes one
// task per rank, so more ranks than the lattice has fluid sites is a
// request error naming the limit — not a 500, which the router would
// count against the replica. The generalized model extrapolates to the
// same rank count.
func TestDirectRanksAboveFluidSitesIs400(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := WorkloadSpec{Geometry: "cylinder", Scale: 5}
	a, err := s.anatomyFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sites := a.Lattice.N()

	body := func(model string, ranks int) string {
		return fmt.Sprintf(`{"workload":{"geometry":"cylinder","scale":5},"systems":["CSP-2"],"ranks":[%d],"model":%q}`, ranks, model)
	}
	resp, data := postJSON(t, ts.URL+"/v1/predict", body("direct", 100000))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("direct at 100000 ranks: status %d, want 400 (%s)", resp.StatusCode, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("error body malformed: %s", data)
	}
	if !strings.Contains(er.Error, "100000") || !strings.Contains(er.Error, fmt.Sprint(sites)) {
		t.Errorf("error %q does not name the request (100000) and the limit (%d)", er.Error, sites)
	}

	// The limit itself is served; one past it is not.
	if resp, data := postJSON(t, ts.URL+"/v1/predict", body("direct", sites)); resp.StatusCode != http.StatusOK {
		t.Errorf("direct at %d ranks (one per site): status %d (%s)", sites, resp.StatusCode, data)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/predict", body("direct", sites+1)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("direct at %d ranks: status %d, want 400", sites+1, resp.StatusCode)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/predict", body("generalized", 100000)); resp.StatusCode != http.StatusOK {
		t.Errorf("generalized at 100000 ranks: status %d, want 200 (%s)", resp.StatusCode, data)
	}
}

// TestDecompositionMemoIsBounded: rank counts are the client's choice, so
// one anatomy must not pin a decomposition per count ever requested.
// 200 distinct counts at one workload keep the memo at or below its cap, and a
// count evicted and asked for again gets the byte-identical reply.
func TestDecompositionMemoIsBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := WorkloadSpec{Geometry: "cylinder", Scale: 5}
	a, err := s.anatomyFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ask := func(ranks int) []byte {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/predict", fmt.Sprintf(
			`{"workload":{"geometry":"cylinder","scale":5},"systems":["CSP-2"],"ranks":[%d],"model":"direct"}`, ranks))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ranks %d: status %d (%s)", ranks, resp.StatusCode, data)
		}
		return data
	}

	// Warm the entry without touching the memo, so every direct reply
	// below carries the same cache fields.
	if resp, data := postJSON(t, ts.URL+"/v1/predict", predictBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d (%s)", resp.StatusCode, data)
	}
	const distinct = 200
	replies := make([][]byte, distinct+1)
	for ranks := 1; ranks <= distinct; ranks++ {
		replies[ranks] = ask(ranks)
		if n := a.MemoizedWorkloads(); n > core.MaxMemoizedWorkloads {
			t.Fatalf("after %d distinct rank counts the memo holds %d decompositions, cap %d",
				ranks, n, core.MaxMemoizedWorkloads)
		}
	}
	if n := a.MemoizedWorkloads(); n != core.MaxMemoizedWorkloads {
		t.Errorf("memo holds %d decompositions, want it full at %d", n, core.MaxMemoizedWorkloads)
	}
	// Counts 1…(distinct-cap) are long evicted; the last few are not.
	for _, ranks := range []int{1, 2, 57, distinct - core.MaxMemoizedWorkloads, distinct} {
		if again := ask(ranks); !bytes.Equal(again, replies[ranks]) {
			t.Errorf("ranks %d: reply after eviction differs\nfirst: %s\nagain: %s", ranks, replies[ranks], again)
		}
	}
}

// TestColdDirectPredictTakesItsWorkloadsFromTheSweep: the request that
// makes the server prepare a workload says which rank counts it wants
// decomposed, so those the calibration sweep passes through cost no
// decomposition of their own; a generalized request, which decomposes
// nothing, leaves the memo empty.
func TestColdDirectPredictTakesItsWorkloadsFromTheSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		scale                   float64
		model                   string
		memoised, decomposition int
	}{
		{5, "direct", 3, 1}, // 8 and 32 are sweep levels, 36 is not
		{6, "generalized", 0, 0},
	} {
		body := fmt.Sprintf(`{"workload":{"geometry":"cylinder","scale":%g},"systems":["CSP-2"],"ranks":[8,32,36],"model":%q}`, tc.scale, tc.model)
		if resp, data := postJSON(t, ts.URL+"/v1/predict", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", tc.model, resp.StatusCode, data)
		}
		a, err := s.anatomyFor(context.Background(), WorkloadSpec{Geometry: "cylinder", Scale: tc.scale})
		if err != nil {
			t.Fatal(err)
		}
		if a.MemoizedWorkloads() != tc.memoised || a.Decompositions() != int64(tc.decomposition) {
			t.Errorf("%s predict at ranks 8, 32, 36 on a cold workload: %d workloads memoised, %d decompositions outside the sweep; want %d and %d",
				tc.model, a.MemoizedWorkloads(), a.Decompositions(), tc.memoised, tc.decomposition)
		}
	}
}
