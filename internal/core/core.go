// Package core is the library's front door: it wires the substrates into
// the paper's Figure 1 framework. Phase one characterizes every candidate
// cloud instance into a CSP Option Dashboard; phase two tunes the
// performance model to a specific anatomy, predicts per-instance
// performance, drives the instance choice, guards the job against cost
// overruns, and feeds measurements back into the model (iterative
// refinement).
//
// Typical use:
//
//	fw, _ := core.NewFramework(machine.Catalog(), 5, 1)
//	anatomy, _ := fw.PrepareAnatomy("aorta", dom, lbm.Params{Tau: 0.9, UMax: 0.02})
//	pred, _ := fw.PredictGeneral(anatomy, "CSP-2 EC", 144)
//	spec, _ := fw.PlanJob(anatomy, "CSP-2 EC", 144, 10000, 0.10)
//	res, _ := fw.Provider.RunJob(spec)
//	fw.Record(anatomy, pred, res.Result)
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/dashboard"
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
	// Record is its one writer here (a fleet report exports into it
	// too); baselines, regression detection and the refinement
	// correction are all read from it.
	Monitor monitor.Store

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
		Provider:  cloud.NewProvider(systems, seed+1),
		systems:   systems,
		rng:       rng,
	}, nil
}

// Anatomy bundles a prepared simulation target: the solver over its
// geometry, the byte-access accounting, the scalar workload summary, and
// the anatomy-tuned generalized model (phase two of Figure 1).
type Anatomy struct {
	Name    string
	Solver  *lbm.Sparse
	Access  lbm.AccessModel
	Summary perfmodel.WorkloadSummary
	General perfmodel.GeneralModel

	workloads workloadMemo
}

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

// NewAnatomy builds the solver for a domain and tunes the generalized
// model to it by decomposing over a task sweep (the paper's "anatomy-
// specific predictions"). Nothing in it depends on a machine but
// coresPerNode, the node width the sweep is calibrated at: pass the
// widest node among the candidate systems so one tuning serves them all.
func NewAnatomy(name string, dom *geometry.Domain, p lbm.Params, coresPerNode int) (*Anatomy, error) {
	s, err := lbm.NewSparse(dom, p)
	if err != nil {
		return nil, err
	}
	access := lbm.HarveyAccess()
	g, err := perfmodel.CalibrateGeneral(s, access, CalibrationCounts(s.N()), coresPerNode)
	if err != nil {
		return nil, fmt.Errorf("core: calibrating %q: %w", name, err)
	}
	return &Anatomy{
		Name:   name,
		Solver: s,
		Access: access,
		Summary: perfmodel.WorkloadSummary{
			Name:        name,
			Points:      s.N(),
			BytesSerial: s.BytesSerial(access),
		},
		General: g,
	}, nil
}

// PrepareAnatomy is NewAnatomy at the node width of the largest-node
// system in the dashboard.
func (f *Framework) PrepareAnatomy(name string, dom *geometry.Domain, p lbm.Params) (*Anatomy, error) {
	return NewAnatomy(name, dom, p, machine.WidestNode(f.systems))
}

// Workload decomposes the anatomy over the given rank count, once per
// (anatomy, ranks): repeat calls share one read-only workload.
func (a *Anatomy) Workload(ranks int) (simcloud.Workload, error) {
	return a.workloads.workload(a.Name, a.Solver, a.Access, ranks)
}

// MemoizedWorkloads returns the number of decompositions the anatomy
// currently holds, at most MaxMemoizedWorkloads.
func (a *Anatomy) MemoizedWorkloads() int { return a.workloads.len() }

// Workload is a.Workload(ranks).
func (f *Framework) Workload(a *Anatomy, ranks int) (simcloud.Workload, error) {
	return a.Workload(ranks)
}

// AttachTable enables the Tier 2 measured-lookup backend on every
// dashboard entry (see Dashboard.AttachTable).
func (f *Framework) AttachTable(tbl *perfmodel.Table) error {
	return f.Dashboard.AttachTable(tbl)
}

// refine applies iterative-refinement feedback to a prediction. The
// monitor's correction is taken over measured-vs-Tier-1 residuals, so it
// is only meaningful on Tier 1 output: scaling a Tier 2 table value (or
// a Tier 0 spec-sheet estimate) by a Tier 1 bias factor would
// contaminate the other tiers' provenance.
func (f *Framework) refine(pred perfmodel.Prediction) perfmodel.Prediction {
	if pred.Tier != perfmodel.Tier1Calibrated {
		return pred
	}
	return f.Monitor.Refine(pred)
}

// PredictDirect evaluates the direct model for the anatomy on a system
// at the calibrated tier (Tier 1).
func (f *Framework) PredictDirect(a *Anatomy, system string, ranks int) (perfmodel.Prediction, error) {
	return f.PredictDirectTier(a, system, ranks, perfmodel.Tier1Calibrated)
}

// PredictDirectTier is PredictDirect at an explicit accuracy tier ("" or
// perfmodel.TierAuto picks the best tier with data for the request).
func (f *Framework) PredictDirectTier(a *Anatomy, system string, ranks int, tier string) (perfmodel.Prediction, error) {
	e, err := f.Dashboard.Entry(system)
	if err != nil {
		return perfmodel.Prediction{}, err
	}
	w, err := f.Workload(a, ranks)
	if err != nil {
		return perfmodel.Prediction{}, err
	}
	pred, err := e.Predict(perfmodel.Request{Model: perfmodel.ModelDirect, Workload: &w, Tier: tier})
	if err != nil {
		return perfmodel.Prediction{}, err
	}
	return f.refine(pred), nil
}

// PredictGeneral evaluates the generalized model for the anatomy on a
// system at the calibrated tier (Tier 1). Rank counts may exceed the
// instance size (extrapolation).
func (f *Framework) PredictGeneral(a *Anatomy, system string, ranks int) (perfmodel.Prediction, error) {
	return f.PredictGeneralTier(a, system, ranks, perfmodel.Tier1Calibrated)
}

// PredictGeneralTier is PredictGeneral at an explicit accuracy tier.
func (f *Framework) PredictGeneralTier(a *Anatomy, system string, ranks int, tier string) (perfmodel.Prediction, error) {
	e, err := f.Dashboard.Entry(system)
	if err != nil {
		return perfmodel.Prediction{}, err
	}
	pred, err := e.Predict(perfmodel.Request{
		Model:   perfmodel.ModelGeneral,
		Summary: &a.Summary,
		General: a.General,
		Ranks:   ranks,
		Tier:    tier,
	})
	if err != nil {
		return perfmodel.Prediction{}, err
	}
	return f.refine(pred), nil
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

// Record stores a prediction/measurement pair in the monitor, stamped
// with the provider's simulated clock and the tier that predicted. Tier 1
// pairs improve subsequent predictions (the feedback arrow of Figure 1).
func (f *Framework) Record(a *Anatomy, pred perfmodel.Prediction, measured simcloud.Result) error {
	if pred.MFLUPS <= 0 {
		return fmt.Errorf("core: prediction for %s/%s has non-positive throughput", pred.System, a.Name)
	}
	return f.Monitor.Add(monitor.Sample{
		TimeS:     f.Provider.Clock(),
		Workload:  a.Name,
		System:    pred.System,
		Model:     pred.Model,
		Tier:      pred.Tier,
		Ranks:     pred.Ranks,
		MFLUPS:    measured.MFLUPS,
		Predicted: pred.MFLUPS,
		CostUSD:   measured.CostUSD,
	})
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

// PlanJob turns a prediction into a guarded job spec: the predicted
// runtime bounds the time guard at the given tolerance, and the implied
// cost (plus the same tolerance) bounds the dollar guard.
func (f *Framework) PlanJob(a *Anatomy, system string, ranks, steps int, tolerance float64) (cloud.JobSpec, error) {
	if tolerance < 0 {
		return cloud.JobSpec{}, fmt.Errorf("core: negative tolerance %g", tolerance)
	}
	sys, err := f.Provider.System(system)
	if err != nil {
		return cloud.JobSpec{}, err
	}
	pred, err := f.PredictDirect(a, system, ranks)
	if err != nil {
		return cloud.JobSpec{}, err
	}
	w, err := f.Workload(a, ranks)
	if err != nil {
		return cloud.JobSpec{}, err
	}
	seconds := pred.SecondsPerStep * float64(steps)
	return cloud.JobSpec{
		Workload:         w,
		System:           system,
		Steps:            steps,
		PredictedSeconds: seconds,
		Tolerance:        tolerance,
		MaxUSD:           sys.JobCost(ranks, seconds) * (1 + tolerance) * 1.05,
	}, nil
}

// Assess evaluates every dashboard system for the anatomy at a rank count
// and job length.
func (f *Framework) Assess(a *Anatomy, ranks, steps int) ([]dashboard.Assessment, error) {
	return f.Dashboard.Assess(a.Summary, a.General, ranks, steps)
}

// AssessTier is Assess at an explicit accuracy tier ("" or
// perfmodel.TierAuto picks the best tier with data per system).
func (f *Framework) AssessTier(a *Anatomy, ranks, steps int, tier string) ([]dashboard.Assessment, error) {
	return f.Dashboard.AssessTier(a.Summary, a.General, ranks, steps, tier)
}

// Recommend picks the best system under an objective, optionally subject
// to a deadline in seconds.
func (f *Framework) Recommend(a *Anatomy, ranks, steps int, obj dashboard.Objective, deadline float64) (dashboard.Assessment, error) {
	as, err := f.Assess(a, ranks, steps)
	if err != nil {
		return dashboard.Assessment{}, err
	}
	return dashboard.Recommend(as, obj, deadline)
}
