// Package core is the library's front door: it wires the substrates into
// the paper's Figure 1 framework. Phase one characterizes every candidate
// cloud instance into a CSP Option Dashboard; phase two tunes the
// performance model to a specific anatomy, predicts per-instance
// performance, drives the instance choice, and feeds measurements back
// into the model (iterative refinement). Running a job under the budget
// guard is internal/campaign's, on internal/fleet's scheduler.
//
// Typical use:
//
//	fw, _ := core.NewFramework(machine.Catalog(), 5, 1)
//	anatomy, _ := fw.PrepareAnatomy("aorta", dom, lbm.Params{Tau: 0.9, UMax: 0.02})
//	best, _ := fw.Recommend(anatomy, 144, 10000, dashboard.MaxValue, 0)
//	pred, _ := fw.Predict(anatomy, core.Query{System: best.System, Model: perfmodel.ModelDirect, Ranks: 144})
//	meas, _ := fw.Measure(anatomy, best.System, 144, 10000)
//	fw.Record(anatomy, pred, meas)
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/cloud"
	"repro/internal/dashboard"
	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/monitor"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

// Framework is the assembled Figure 1 pipeline.
type Framework struct {
	Dashboard *dashboard.Dashboard
	Provider  *cloud.Provider

	// Monitor is the SONAR-style store of every measured run with the
	// prediction that preceded it, on the provider's simulated timeline.
	// Campaigns write into it through their fleet report's export, and
	// Record (behind Observe) writes single runs; baselines, regression
	// detection and the refinement correction are all read from it.
	Monitor monitor.Store

	// Anatomies holds what phase two prepared, one entry per distinct
	// lattice, for CachedAnatomy: a campaign whose jobs share a geometry
	// and scale tunes the model to it once. A fresh framework starts cold;
	// an owner with a longer-lived cache (the planning service) may hand
	// its own in before the first use.
	Anatomies *AnatomyCache

	systems []*machine.System
	rng     *rand.Rand
}

// NewFramework characterizes the systems (phase one) and stands up the
// simulated provider. samples controls microbenchmark averaging; seed
// makes every noise process reproducible.
func NewFramework(systems []*machine.System, samples int, seed int64) (*Framework, error) {
	rng := rand.New(rand.NewSource(seed))
	d, err := dashboard.Build(systems, samples, rng)
	if err != nil {
		return nil, err
	}
	return &Framework{
		Dashboard: d,
		Provider:  cloud.NewProvider(systems),
		Anatomies: cache.New[AnatomyKey, *Anatomy](MaxCachedAnatomies, nil),
		systems:   systems,
		rng:       rng,
	}, nil
}

// Anatomy bundles a prepared simulation target: the lattice of its
// geometry, the byte-access accounting, the scalar workload summary, and
// the anatomy-tuned generalized model (phase two of Figure 1). It holds
// topology only — no distribution array, no link table — so it is cheap
// to keep.
//
// Name labels the workloads, predictions and records made from it, and
// nothing else: anatomies of one lattice under different names (see
// CachedAnatomy) share the lattice, the model and the decompositions.
type Anatomy struct {
	Name    string
	Lattice *lbm.Lattice
	Access  lbm.AccessModel
	Summary perfmodel.WorkloadSummary
	General perfmodel.GeneralModel

	// workloads memoises the lattice's decompositions by rank count, so
	// predicting, measuring and planning the same (anatomy, ranks) run RCB
	// once, and a hit on one count never waits behind a miss on another.
	// The stored workloads are unnamed and share their slices: read, do
	// not modify.
	workloads *cache.LRU[int, simcloud.Workload]
	lazy      *atomic.Int64 // decompositions Workload had to run: the memo's misses
}

// MaxMemoizedWorkloads bounds an Anatomy's memo: rank counts come from
// requests, so without a cap one lattice could pin a decomposition per
// count ever asked for. A campaign or a serving key asks for a handful. A
// decomposition is a pure function of lattice, access model and rank
// count, so recomputing a dropped one returns the identical workload.
const MaxMemoizedWorkloads = 32

// CalibrationCounts is the task-count sweep used to fit the z-law and
// event-law when tuning the generalized model to an anatomy of n fluid
// points.
func CalibrationCounts(n int) []int {
	var counts []int
	for k := 1; k <= n/8 && k <= 512; k *= 2 {
		counts = append(counts, k)
	}
	for len(counts) < 3 {
		counts = append(counts, len(counts)+1)
	}
	return counts
}

// NewAnatomy builds the lattice of a domain and tunes the generalized
// model to it by decomposing over a task sweep (the paper's "anatomy-
// specific predictions"). Nothing in it depends on a machine but
// coresPerNode, the node width the sweep is calibrated at: pass the
// widest node among the candidate systems so one tuning serves them all.
//
// ranks are the rank counts the caller is about to ask Workload for:
// those the sweep decomposed anyway are memoised from it, so asking costs
// nothing more. The sweep's other levels are dropped — a level is a halo
// list per task, and an anatomy that kept all of them for every lattice
// held measurably more than the decompositions it saved.
func NewAnatomy(name string, dom *geometry.Domain, p lbm.Params, coresPerNode int, ranks ...int) (*Anatomy, error) {
	l, err := lbm.NewLattice(dom, p)
	if err != nil {
		return nil, err
	}
	access := lbm.HarveyAccess()
	counts := CalibrationCounts(l.N())
	var g perfmodel.GeneralModel
	parts, err := decomp.RCBSweep(l, counts, access)
	if err == nil {
		g, err = perfmodel.FitGeneral(parts, l.N(), coresPerNode)
	}
	if err != nil {
		return nil, fmt.Errorf("core: calibrating %q: %w", name, err)
	}
	lazy := new(atomic.Int64)
	a := &Anatomy{
		Name:    name,
		Lattice: l,
		Access:  access,
		Summary: perfmodel.WorkloadSummary{
			Name:        name,
			Points:      l.N(),
			BytesSerial: l.BytesSerial(access),
		},
		General: g,
		workloads: cache.New[int, simcloud.Workload](MaxMemoizedWorkloads, func(r cache.Result) {
			if r == cache.Miss {
				lazy.Add(1)
			}
		}),
		lazy: lazy,
	}
	for i, k := range counts {
		if slices.Contains(ranks, k) {
			a.workloads.Add(k, simcloud.FromPartition("", l.N(), parts[i]))
		}
	}
	return a, nil
}

// as returns the anatomy under another name: a copy sharing the lattice
// and the memo, or the receiver when the name is already its own.
func (a *Anatomy) as(name string) *Anatomy {
	if a.Name == name {
		return a
	}
	b := *a
	b.Name, b.Summary.Name = name, name
	return &b
}

// AnatomyKey is everything NewAnatomy's result depends on but the name:
// a geometry in the vocabulary of whoever builds the domain, its scale,
// the solver parameters and the calibration node width.
type AnatomyKey struct {
	Geometry     string
	Scale        float64
	Params       lbm.Params
	CoresPerNode int
}

// AnatomyCache holds prepared anatomies by what they are a function of.
type AnatomyCache = cache.LRU[AnatomyKey, *Anatomy]

// MaxCachedAnatomies bounds a Framework's anatomy cache: a prepared
// anatomy retains 6–8 bytes per fluid site plus 1.5 bits per box voxel
// (measured after GC: 7.3 B a site for aorta@16's 207 k sites, 1.5 MB in
// all; 79 B a site for cerebral@8, whose box is 380 voxels a site), and
// a campaign revisits few of them.
const MaxCachedAnatomies = 64

// CachedAnatomy is phase two evaluated once per distinct lattice: it
// returns the anatomy of key from c under the given name, and on a miss
// builds the domain with dom and tunes the model to it (NewAnatomy) —
// once, however many callers ask for the key at the same time. ctx is
// checked between the two stages and bounds the wait for another
// caller's build; the stages themselves are uninterruptible. ranks go to
// NewAnatomy with a build; a key already prepared ignores them.
func CachedAnatomy(ctx context.Context, c *AnatomyCache, key AnatomyKey, name string, dom func() (*geometry.Domain, error), ranks ...int) (*Anatomy, error) {
	a, _, err := c.Get(ctx, key, func() (*Anatomy, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, err := dom()
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return NewAnatomy(key.Geometry, d, key.Params, key.CoresPerNode, ranks...)
	})
	if err != nil {
		return nil, err
	}
	return a.as(name), nil
}

// CachedAnatomy is the package function on the framework's own cache, at
// the node width of the largest-node system in the dashboard.
func (f *Framework) CachedAnatomy(ctx context.Context, name, geometryName string, scale float64, p lbm.Params, dom func() (*geometry.Domain, error), ranks ...int) (*Anatomy, error) {
	key := AnatomyKey{Geometry: geometryName, Scale: scale, Params: p, CoresPerNode: machine.WidestNode(f.systems)}
	return CachedAnatomy(ctx, f.Anatomies, key, name, dom, ranks...)
}

// PrepareAnatomy is NewAnatomy at the node width of the largest-node
// system in the dashboard, for a domain the caller built: nothing names
// its lattice, so nothing is cached.
func (f *Framework) PrepareAnatomy(name string, dom *geometry.Domain, p lbm.Params) (*Anatomy, error) {
	return NewAnatomy(name, dom, p, machine.WidestNode(f.systems))
}

// Workload decomposes the anatomy over the given rank count, once per
// (lattice, ranks): repeat calls share one read-only workload, named for
// the anatomy asking. Errors are not memoised.
func (a *Anatomy) Workload(ranks int) (simcloud.Workload, error) {
	// Building runs on the calling goroutine and a parked caller waits
	// for it as it would for its own, so there is nothing to cancel.
	w, _, err := a.workloads.Get(context.Background(), ranks, func() (simcloud.Workload, error) {
		p, err := decomp.RCB(a.Lattice, ranks, a.Access)
		if err != nil {
			return simcloud.Workload{}, err
		}
		return simcloud.FromPartition("", a.Lattice.N(), p), nil
	})
	if err != nil {
		return simcloud.Workload{}, err
	}
	w.Name = a.Name
	return w, nil
}

// MemoizedWorkloads returns the number of decompositions the anatomy's
// lattice currently holds, at most MaxMemoizedWorkloads.
func (a *Anatomy) MemoizedWorkloads() int { return a.workloads.Len() }

// Decompositions returns how many times Workload has had to decompose the
// anatomy's lattice. The levels of the calibration sweep are not counted.
func (a *Anatomy) Decompositions() int64 { return a.lazy.Load() }

// Workload is a.Workload(ranks).
func (f *Framework) Workload(a *Anatomy, ranks int) (simcloud.Workload, error) {
	return a.Workload(ranks)
}

// AttachTable enables the Tier 2 measured-efficiency backend on every
// dashboard entry (see Dashboard.AttachTable).
func (f *Framework) AttachTable(tbl *perfmodel.Table) error {
	return f.Dashboard.AttachTable(tbl)
}

// Query asks for one prediction: a system of the dashboard, one of
// perfmodel's two models ("" is ModelGeneral), a rank count, and an
// accuracy tier ("" is Tier 1; perfmodel.TierAuto picks the best tier
// with data).
type Query struct {
	System, Model string
	Ranks         int
	Tier          string
}

// tierOr1 is the tier a query or assessment names, Tier 1 when none.
func tierOr1(tier string) string {
	if tier == "" {
		return perfmodel.Tier1Calibrated
	}
	return tier
}

// Predict evaluates q for the anatomy and refines Tier 1 output by the
// monitor's correction, which is learned from measured-vs-Tier-1
// residuals: scaling a Tier 2 table value or a Tier 0 spec-sheet
// estimate by it would contaminate the other tiers' provenance.
func (f *Framework) Predict(a *Anatomy, q Query) (perfmodel.Prediction, error) {
	pred, err := f.Unrefined(a, q)
	switch {
	case err != nil:
		return perfmodel.Prediction{}, err
	case pred.Tier != perfmodel.Tier1Calibrated:
		return pred, nil
	}
	return f.Monitor.Refine(pred), nil
}

// Unrefined is Predict without the correction: the model's own answer,
// which is what the monitor records and learns from. It fills the
// request with what the anatomy knows: its decomposition over q.Ranks
// for the direct model, its summary and tuned laws for the generalized
// one, whose rank counts may exceed the instance size (extrapolation).
func (f *Framework) Unrefined(a *Anatomy, q Query) (perfmodel.Prediction, error) {
	e, err := f.Dashboard.Entry(q.System)
	if err != nil {
		return perfmodel.Prediction{}, err
	}
	req := perfmodel.Request{Model: q.Model, Tier: tierOr1(q.Tier)}
	if q.Model == perfmodel.ModelDirect {
		w, err := a.Workload(q.Ranks)
		if err != nil {
			return perfmodel.Prediction{}, err
		}
		req.Workload = &w
	} else {
		req.Summary, req.General, req.Ranks = &a.Summary, a.General, q.Ranks
	}
	return e.Predict(req)
}

// PredictDirect is Predict with the direct model at Tier 1, kept as a
// method because bench/fleet.go calls it.
func (f *Framework) PredictDirect(a *Anatomy, system string, ranks int) (perfmodel.Prediction, error) {
	return f.Predict(a, Query{System: system, Model: perfmodel.ModelDirect, Ranks: ranks})
}

// Measure runs the decomposed anatomy on a system's hardware model with
// noise — this reproduction's analogue of submitting the real job — and
// returns the observed result.
func (f *Framework) Measure(a *Anatomy, system string, ranks, steps int) (simcloud.Result, error) {
	sys, err := f.Provider.System(system)
	if err != nil {
		return simcloud.Result{}, err
	}
	w, err := f.Workload(a, ranks)
	if err != nil {
		return simcloud.Result{}, err
	}
	return simcloud.Run(w, sys, steps, f.rng)
}

// Record stores a measurement in the monitor, stamped with the
// provider's simulated clock, beside the unrefined prediction of pred's
// query: the monitor learns against the model's own output, and a
// refined pred would teach it the residual of an older correction. Tier
// 1 pairs improve subsequent predictions (the feedback arrow of Figure 1).
func (f *Framework) Record(a *Anatomy, pred perfmodel.Prediction, measured simcloud.Result) error {
	if pred.MFLUPS <= 0 {
		return fmt.Errorf("core: prediction for %s/%s has non-positive throughput", pred.System, a.Name)
	}
	raw, err := f.Unrefined(a, Query{System: pred.System, Model: pred.Model, Ranks: pred.Ranks, Tier: pred.Tier})
	if err != nil {
		return err
	}
	s := monitor.FromPrediction(raw)
	s.TimeS, s.Workload, s.MFLUPS, s.CostUSD = f.Provider.Clock(), a.Name, measured.MFLUPS, measured.CostUSD
	return f.Monitor.Add(s)
}

// Observe runs one full predict-measure-track cycle for an anatomy on a
// system: direct prediction, simulated measurement, and the pair recorded
// in the monitor. This is the automated loop the paper's Discussion
// sketches around SONAR-style monitoring.
func (f *Framework) Observe(a *Anatomy, system string, ranks, steps int) (perfmodel.Prediction, simcloud.Result, error) {
	pred, err := f.PredictDirect(a, system, ranks)
	if err != nil {
		return perfmodel.Prediction{}, simcloud.Result{}, err
	}
	meas, err := f.Measure(a, system, ranks, steps)
	if err != nil {
		return perfmodel.Prediction{}, simcloud.Result{}, err
	}
	if err := f.Record(a, pred, meas); err != nil {
		return perfmodel.Prediction{}, simcloud.Result{}, err
	}
	return pred, meas, nil
}

// Assess evaluates every dashboard system for the anatomy at a rank count,
// job length and accuracy tier ("" is Tier 1; perfmodel.TierAuto picks the
// best tier with data per system).
func (f *Framework) Assess(a *Anatomy, ranks, steps int, tier string) ([]dashboard.Assessment, error) {
	return f.Dashboard.AssessTier(a.Summary, a.General, ranks, steps, tierOr1(tier))
}

// Recommend picks the best system under an objective, optionally subject
// to a deadline in seconds.
func (f *Framework) Recommend(a *Anatomy, ranks, steps int, obj dashboard.Objective, deadline float64) (dashboard.Assessment, error) {
	as, err := f.Assess(a, ranks, steps, "")
	if err != nil {
		return dashboard.Assessment{}, err
	}
	return dashboard.Recommend(as, obj, deadline)
}
