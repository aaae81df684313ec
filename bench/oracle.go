package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/simcloud"
)

// oracle evaluates perfmodel.Predictor directly on a request's inputs, the
// way serve's calibration cache would on a miss, so every reply can be
// checked against the model without going through the service.
type oracle struct {
	systems      map[string]*machine.System
	order        []string
	coresPerNode int
	table        *perfmodel.Table
	shapes       map[serve.WorkloadSpec]*shape
	predictors   map[predictorKey]*perfmodel.Predictor
}

// shape is the seed-independent part of a calibration: the solver over
// the geometry and the generalized model tuned to it.
type shape struct {
	solver    *lbm.Sparse
	access    lbm.AccessModel
	summary   perfmodel.WorkloadSummary
	general   perfmodel.GeneralModel
	workloads map[int]simcloud.Workload
}

type predictorKey struct {
	system string
	seed   int64
	tier   string
}

func newOracle() (*oracle, error) {
	tbl, err := perfmodel.DefaultTable()
	if err != nil {
		return nil, err
	}
	o := &oracle{
		systems:      make(map[string]*machine.System),
		coresPerNode: 1,
		table:        tbl,
		shapes:       make(map[serve.WorkloadSpec]*shape),
		predictors:   make(map[predictorKey]*perfmodel.Predictor),
	}
	for _, sys := range machine.Catalog() {
		o.systems[sys.Abbrev] = sys
		o.order = append(o.order, sys.Abbrev)
		o.coresPerNode = max(o.coresPerNode, sys.CoresPerNode)
	}
	return o, nil
}

func (o *oracle) shape(w serve.WorkloadSpec) (*shape, error) {
	if sh, ok := o.shapes[w]; ok {
		return sh, nil
	}
	dom, err := campaign.BuildGeometry(w.Geometry, w.Scale)
	if err != nil {
		return nil, err
	}
	solver, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		return nil, err
	}
	access := lbm.HarveyAccess()
	general, err := perfmodel.CalibrateGeneral(solver, access, core.CalibrationCounts(solver.N()), o.coresPerNode)
	if err != nil {
		return nil, err
	}
	sh := &shape{
		solver:    solver,
		access:    access,
		summary:   perfmodel.WorkloadSummary{Name: w.Geometry, Points: solver.N(), BytesSerial: solver.BytesSerial(access)},
		general:   general,
		workloads: make(map[int]simcloud.Workload),
	}
	o.shapes[w] = sh
	return sh, nil
}

func (sh *shape) workload(ranks int) (simcloud.Workload, error) {
	if w, ok := sh.workloads[ranks]; ok {
		return w, nil
	}
	p, err := decomp.RCB(sh.solver, ranks, sh.access)
	if err != nil {
		return simcloud.Workload{}, err
	}
	w := simcloud.FromPartition(sh.summary.Name, sh.solver.N(), p)
	sh.workloads[ranks] = w
	return w, nil
}

// characterized mirrors serve: only tier1 and auto pay for the fit.
func characterized(tier string) bool {
	return tier == perfmodel.Tier1Calibrated || tier == perfmodel.TierAuto
}

func (o *oracle) predictor(system string, seed int64, tier string) (*perfmodel.Predictor, error) {
	key := predictorKey{system, seed, tier}
	if p, ok := o.predictors[key]; ok {
		return p, nil
	}
	sys, ok := o.systems[system]
	if !ok {
		return nil, fmt.Errorf("oracle: system %q not in catalog", system)
	}
	backends := []perfmodel.Backend{perfmodel.NewPhysicsBackend(sys)}
	if characterized(tier) {
		char, err := perfmodel.Characterize(sys, 5, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		backends = append(backends, perfmodel.NewCalibratedBackend(char))
	}
	backends = append(backends, perfmodel.NewLookupBackend(sys.Abbrev, o.table))
	p, err := perfmodel.NewPredictor(backends...)
	if err != nil {
		return nil, err
	}
	o.predictors[key] = p
	return p, nil
}

// expectation is the part of one prediction the service must reproduce.
type expectation struct {
	System string
	Ranks  int
	MFLUPS float64
	Tier   string
}

func (o *oracle) predictOne(w serve.WorkloadSpec, system, model string, ranks int, occupancy float64, seed int64, tier string) (expectation, error) {
	if seed == 0 {
		seed = serverSeed
	}
	if tier == "" {
		tier = perfmodel.Tier1Calibrated
	}
	sh, err := o.shape(w)
	if err != nil {
		return expectation{}, err
	}
	pred, err := o.predictor(system, seed, tier)
	if err != nil {
		return expectation{}, err
	}
	req := perfmodel.Request{Model: perfmodel.ModelGeneral, Summary: &sh.summary, Ranks: ranks, Tier: tier}
	if characterized(tier) {
		req.General = sh.general
	}
	if model == perfmodel.ModelDirect {
		wl, err := sh.workload(ranks)
		if err != nil {
			return expectation{}, err
		}
		req = perfmodel.Request{Model: perfmodel.ModelDirect, Workload: &wl, Occupancy: occupancy, Tier: tier}
	}
	p, err := pred.Predict(req)
	if err != nil {
		return expectation{}, err
	}
	return expectation{System: p.System, Ranks: p.Ranks, MFLUPS: p.MFLUPS, Tier: p.Tier}, nil
}

// cacheCounts is a reply's cache_hits / cache_misses / cache_coalesced.
type cacheCounts struct{ hits, misses, coalesced int }

// check verifies a 200 body against the model: every prediction's system,
// ranks, mflups (bit for bit) and tier; and for /v1/predict the cache
// fields, which must sum to the systems the request touched.
func (o *oracle) check(r request, body []byte) (cacheCounts, error) {
	var got []expectation
	var want []expectation
	var cc cacheCounts
	switch {
	case r.predict != nil:
		var resp serve.PredictResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return cc, err
		}
		for _, p := range resp.Predictions {
			got = append(got, expectation{p.System, p.Ranks, p.MFLUPS, p.Tier})
		}
		cc = cacheCounts{resp.CacheHits, resp.CacheMisses, resp.CacheCoalesced}
		systems := r.predict.Systems
		if len(systems) == 0 {
			systems = o.order
		}
		if cc.hits+cc.misses+cc.coalesced != len(systems) {
			return cc, fmt.Errorf("cache fields %+v do not sum to %d systems", cc, len(systems))
		}
		for _, sys := range systems {
			for _, ranks := range r.predict.Ranks {
				e, err := o.predictOne(r.predict.Workload, sys, r.predict.Model, ranks, r.predict.Occupancy, r.predict.Seed, r.predict.Tier)
				if err != nil {
					return cc, err
				}
				want = append(want, e)
			}
		}
	case r.plan != nil:
		var resp serve.PlanResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return cc, err
		}
		for _, a := range resp.Assessments {
			got = append(got, expectation{a.System, a.Ranks, a.MFLUPS, a.Tier})
		}
		for _, sys := range o.order {
			e, err := o.predictOne(r.plan.Workload, sys, perfmodel.ModelGeneral, r.plan.Ranks, 0, r.plan.Seed, r.plan.Tier)
			if err != nil {
				return cc, err
			}
			want = append(want, e)
		}
		if resp.Recommended == nil {
			return cc, fmt.Errorf("plan recommends nothing")
		}
	}
	if len(got) != len(want) {
		return cc, fmt.Errorf("%d predictions, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.System != w.System || g.Ranks != w.Ranks || g.Tier != w.Tier ||
			math.Float64bits(g.MFLUPS) != math.Float64bits(w.MFLUPS) {
			return cc, fmt.Errorf("prediction %d is %+v, the model says %+v", i, g, w)
		}
	}
	return cc, nil
}
