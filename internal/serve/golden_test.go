package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_replies.json from this build's replies")

// goldenReply is one request of the pinned sequence and the reply the
// service gave when the file was captured.
type goldenReply struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Body   string `json:"body"`
	Status int    `json:"status"`
	Reply  string `json:"reply"`
}

// goldenRequests is the pinned sequence: every tier spelling × both
// models × two catalog systems, then one whole-catalog plan. One
// workload and one fresh server, so the cache fields are part of the
// pinned bytes.
func goldenRequests() []goldenReply {
	var reqs []goldenReply
	for _, tier := range []string{"tier0", "tier1", "tier2", "auto", ""} {
		for _, model := range []string{"generalized", "direct"} {
			for _, sys := range []string{"CSP-2", "CSP-1"} {
				tierField := ""
				if tier != "" {
					tierField = fmt.Sprintf(`,"tier":%q`, tier)
				}
				reqs = append(reqs, goldenReply{
					Name: fmt.Sprintf("predict/%s/%s/%s", tier, model, sys),
					Path: "/v1/predict",
					Body: fmt.Sprintf(`{"workload":{"geometry":"cylinder","scale":5},"systems":[%q],"ranks":[8,64],"model":%q%s}`,
						sys, model, tierField),
				})
			}
		}
	}
	return append(reqs, goldenReply{
		Name: "plan/catalog",
		Path: "/v1/plan",
		Body: `{"workload":{"geometry":"cylinder","scale":5},"ranks":32,"steps":1000,"objective":"min-cost","max_usd":0.0002}`,
	})
}

// TestGoldenReplies pins the wire format: the replies to a fixed request
// sequence on a fresh server are byte-identical to the ones captured
// before the calibration cache was split into anatomies and entries.
// Regenerate with -update-golden only when a reply is meant to change.
func TestGoldenReplies(t *testing.T) {
	const file = "testdata/golden_replies.json"
	_, ts := newTestServer(t, Config{})
	got := goldenRequests()
	for i := range got {
		resp, data := postJSON(t, ts.URL+got[i].Path, got[i].Body)
		got[i].Status, got[i].Reply = resp.StatusCode, string(data)
	}
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenReply
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file holds %d replies, the sequence has %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Body != w.Body {
			t.Fatalf("request %d is %s, the golden file has %s: regenerate it at the reference commit", i, g.Name, w.Name)
		}
		if g.Status != w.Status || g.Reply != w.Reply {
			t.Errorf("%s: status %d reply %s\nwant status %d reply %s", g.Name, g.Status, g.Reply, w.Status, w.Reply)
		}
	}
}
