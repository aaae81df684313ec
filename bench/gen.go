package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/perfmodel"
	"repro/internal/serve"
)

// request is one generated HTTP request. Exactly one of predict and plan
// is set: the decoded form the oracle evaluates.
type request struct {
	Path    string
	Body    []byte
	Cold    bool   // carries a calibration seed no server has seen
	span    string // name of the op's span: built once, so the hot loop allocates nothing for it
	predict *serve.PredictRequest
	plan    *serve.PlanRequest
}

// trace is a seed-generated request stream: the distinct requests, the
// order in which their indices are sent and, where a router admits by
// tenant, the tenant of each send. The tenant travels as a header, so warm
// requests of different tenants still share one body.
type trace struct {
	reqs    []request
	order   []int
	tenants []string
}

var (
	servedSystems = []string{"CSP-1", "CSP-2", "CSP-2 EC", "TRC"}
	// coldCycle holds cylinder@6 twice: with four equally weighted shapes
	// the median request would sit on the boundary between two shapes'
	// latency modes and flip between them from run to run.
	coldCycle = []serve.WorkloadSpec{
		{Geometry: "cylinder", Scale: 5}, {Geometry: "cylinder", Scale: 6}, {Geometry: "stenosis", Scale: 6},
		{Geometry: "bifurcation", Scale: 5}, {Geometry: "cylinder", Scale: 6},
	}
	batchRanks = []int{8, 16, 32, 64, 128, 256, 512}
)

// add marshals v as the body of r and appends r to the distinct requests.
func (t *trace) add(r request, v any) int {
	body, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshalling a generated request: %v", err)) // plain structs: a bug only
	}
	r.Body, r.span = body, "http "+r.Path
	t.reqs = append(t.reqs, r)
	return len(t.reqs) - 1
}

func (t *trace) addPredict(p serve.PredictRequest, cold bool) int {
	return t.add(request{Path: "/v1/predict", Cold: cold, predict: &p}, p)
}

func (t *trace) addPlan(p serve.PlanRequest) int {
	return t.add(request{Path: "/v1/plan", plan: &p}, p)
}

// coldSeed is the i-th never-seen calibration seed of a benchmark seed.
func coldSeed(seed int64, i int) int64 { return 1<<40 + seed<<20 + int64(i) }

// warmTrace is predict_warm's stream: 8 keys, 80% single-rank requests and
// 20% 512-rank batches, n sends.
func warmTrace(seed int64, n int) trace {
	rng := rand.New(rand.NewSource(seed))
	all := make([]int, 512)
	for i := range all {
		all[i] = i + 1
	}
	var t trace
	var single, batch []int
	for _, w := range sz.warmShapes {
		for _, sys := range servedSystems {
			single = append(single, t.addPredict(serve.PredictRequest{Workload: w, Systems: []string{sys}, Ranks: []int{32}}, false))
			batch = append(batch, t.addPredict(serve.PredictRequest{Workload: w, Systems: []string{sys}, Ranks: all}, false))
		}
	}
	for i := 0; i < n; i++ {
		from := single
		if rng.Intn(5) == 0 {
			from = batch
		}
		t.order = append(t.order, from[rng.Intn(len(from))])
	}
	return t
}

// coldTrace is predict_cold's stream: n requests, each with its own seed,
// cycling the shapes; even ones generalized, odd ones direct.
func coldTrace(seed int64, n int) trace {
	rng := rand.New(rand.NewSource(seed))
	var t trace
	for i := 0; i < n; i++ {
		p := serve.PredictRequest{
			Workload: coldCycle[i%len(coldCycle)],
			Systems:  []string{servedSystems[rng.Intn(len(servedSystems))]},
			Ranks:    []int{8, 32, 128},
			Seed:     coldSeed(seed, i),
		}
		if i%2 == 1 {
			p.Model, p.Ranks = perfmodel.ModelDirect, []int{8, 32}
		}
		t.order = append(t.order, t.addPredict(p, true))
	}
	return t
}

// mixedTrace is cluster_mixed's stream of n requests from four tenants
// over 32 warm single-system keys (2 shapes x 4 systems x 4 tiers) plus
// the whole-catalog entries. The shares are exact quotas, shuffled: 60%
// tier1 generalized, 15% tier0/tier2/auto, 10% direct, 10% /v1/plan,
// 4.9% whole-catalog batch, 0.1% cold seeds at cylinder@5.
func mixedTrace(seed int64, n int) trace {
	rng := rand.New(rand.NewSource(seed))
	var t trace
	var single, tiers, direct, plan, batch []int
	for _, w := range sz.mixedShapes {
		for _, sys := range servedSystems {
			base := serve.PredictRequest{Workload: w, Systems: []string{sys}, Ranks: []int{32}}
			single = append(single, t.addPredict(base, false))
			for _, tier := range []string{perfmodel.Tier0Physics, perfmodel.Tier2Measured, perfmodel.TierAuto} {
				p := base
				p.Tier = tier
				tiers = append(tiers, t.addPredict(p, false))
			}
			p := base
			p.Model, p.Ranks = perfmodel.ModelDirect, []int{16}
			direct = append(direct, t.addPredict(p, false))
		}
		for _, obj := range []string{"min-cost", "min-time"} {
			plan = append(plan, t.addPlan(serve.PlanRequest{Workload: w, Ranks: 32, Steps: 1000, Objective: obj}))
		}
		batch = append(batch, t.addPredict(serve.PredictRequest{Workload: w, Ranks: batchRanks}, false))
	}
	share := func(f float64) int { return int(math.Round(f * float64(n))) }
	nCold := max(share(0.001), 1)
	kinds := make([][]int, 0, n)
	for _, k := range []struct {
		from  []int
		count int
	}{{nil, nCold}, {batch, share(0.049)}, {plan, share(0.10)}, {direct, share(0.10)}, {tiers, share(0.15)}} {
		for i := 0; i < k.count && len(kinds) < n; i++ {
			kinds = append(kinds, k.from)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, single)
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	colds := 0
	for _, from := range kinds {
		idx := 0
		if from == nil {
			idx = t.addPredict(serve.PredictRequest{
				Workload: serve.WorkloadSpec{Geometry: "cylinder", Scale: 5},
				Systems:  []string{servedSystems[rng.Intn(len(servedSystems))]},
				Ranks:    []int{32},
				Seed:     coldSeed(seed, colds),
			}, true)
			colds++
		} else {
			idx = from[rng.Intn(len(from))]
		}
		t.order = append(t.order, idx)
		t.tenants = append(t.tenants, [...]string{"t0", "t1", "t2", "t3"}[rng.Intn(4)])
	}
	return t
}
