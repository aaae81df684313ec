package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/simcloud"
)

// campaignCases are the 24 anatomies of every generated campaign: five
// geometries at scales 5 to 8 (the cerebral tree loses its outlets from
// the lattice below 6), then four more at 6, a third each at 8, 16 and 32
// ranks. The seed deals out order, steps, priorities and deadlines but
// never anatomy or ranks, so every seed prepares and decomposes the same
// lattices and differs only in what the scheduler makes of them.
var campaignCases = func() []campaign.JobConfig {
	var cases []campaign.JobConfig
	for _, g := range []string{"cylinder", "aorta", "cerebral", "stenosis", "bifurcation"} {
		for scale := 5.0; scale <= 8; scale++ {
			s := scale
			if g == "cerebral" {
				s = max(s, 6)
			}
			cases = append(cases, campaign.JobConfig{Geometry: g, Scale: s})
		}
	}
	for _, g := range []string{"cylinder", "aorta", "stenosis", "bifurcation"} {
		cases = append(cases, campaign.JobConfig{Geometry: g, Scale: 6})
	}
	for i := range cases {
		cases[i].Ranks = 8 << (i % 3)
	}
	return cases
}()

// campaignDoc generates the campaign document for a seed: the shape of
// cmd/fleet -example grown to 24 jobs with mixed
// priorities and deadlines, on a pool with spot capacity under a live
// preemption hazard. It is exactly what POST /v1/campaigns and cmd/fleet
// accept.
func campaignDoc(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	cfg := campaign.Config{
		Seed:      seed,
		BudgetUSD: 50,
		Objective: "min-cost",
		Fleet: &campaign.FleetConfig{
			Instances: []fleet.InstanceConfig{
				{System: "CSP-2 Small", Count: 2, Spot: true},
				{System: "CSP-2 Small", Count: 1},
				{System: "CSP-2 EC", Count: 1},
				{System: "CSP-1", Count: 1},
			},
			MaxRetries:            20,
			BackoffBaseS:          30,
			BackoffMaxS:           600,
			PreemptionPerNodeHour: 300,
		},
	}
	order := rng.Perm(len(campaignCases))[:sz.campaignJobs]
	for i, at := range order {
		j := campaignCases[at]
		j.Name = fmt.Sprintf("case-%02d", i)
		j.Steps = 3000 + 500*rng.Intn(7)
		j.Priority = rng.Intn(4)
		switch rng.Intn(4) {
		case 0:
			j.DeadlineS = float64(3000 + 1000*rng.Intn(4))
		case 1:
			j.OnDemandOnly = true
		}
		cfg.Jobs = append(cfg.Jobs, j)
	}
	doc, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench: marshalling the generated campaign: %v", err)) // plain structs: a bug only
	}
	return doc
}

// runFleetCampaign pushes the generated document through
// campaign.Runner.Run on a fresh core.Framework, again and again until the
// window closes. An op is a campaign job; the latency is that of one Run.
func runFleetCampaign(c *child) error {
	doc := campaignDoc(c.seed)
	cfg, err := campaign.Load(bytes.NewReader(doc))
	if err != nil {
		return err
	}
	run := func(cfg campaign.Config) (*campaign.FleetSummary, time.Duration, error) {
		t := time.Now()
		fw, err := core.NewFramework(machine.Catalog(), 5, cfg.Seed)
		if err != nil {
			return nil, 0, err
		}
		out, err := campaign.Runner{Backend: campaign.BackendFleet}.Run(context.Background(), fw, cfg)
		return out.Fleet, time.Since(t), err
	}
	// Warm-up is the document cut to its two smallest anatomies: every code
	// path runs once, without spending a whole Run (which outlasts the
	// window) on it. The first measured Run's report is the reference for
	// any further ones here, and its digest for the other repetitions.
	prefix := cfg
	prefix.Jobs = append([]campaign.JobConfig(nil), cfg.Jobs...)
	sort.SliceStable(prefix.Jobs, func(i, j int) bool { return prefix.Jobs[i].Scale < prefix.Jobs[j].Scale })
	prefix.Jobs = prefix.Jobs[:2]
	if _, _, err := run(prefix); err != nil {
		return err
	}
	want := ""

	c.begin()
	var busy time.Duration
	var runMS []float64
	var slices []sliceStat
	attempted, ok := 0, 0
	// Each Run is one slice of the window.
	for attempted == 0 || time.Since(c.t0) < c.window {
		from := c.lap()
		h := c.rec.begin(c.root, "campaign.run")
		sum, d, err := run(cfg)
		h.end()
		to := c.lap()
		attempted += sz.campaignJobs
		busy += d
		runMS = append(runMS, ms(d))
		if err != nil {
			c.fail("Runner.Run: %v", err)
			continue
		}
		rep := sum.Report
		if want == "" {
			want = sum.Render()
		}
		switch {
		case rep.Completed+rep.Shed != sz.campaignJobs:
			c.fail("completed %d + shed %d is not %d jobs", rep.Completed, rep.Shed, sz.campaignJobs)
		case rep.SpentUSD > rep.BudgetUSD:
			c.fail("spent $%g of a $%g budget", rep.SpentUSD, rep.BudgetUSD)
		case sum.Render() != want:
			c.fail("FleetSummary.Render differs between two runs of one document")
		default:
			ok += rep.Completed // a shed job is a refused op
			slices = append(slices, sliceStat{
				throughput: float64(rep.Completed) / d.Seconds(),
				p50:        ms(d),
				tail:       ms(d),
				cpuPerOp:   cpuSince(from, to, rep.Completed),
			})
		}
	}
	c.end()
	c.finish(attempted, ok, slices, runMS)
	c.extra("jobs_per_s", float64(ok)/busy.Seconds())
	c.res.Digest = fmt.Sprintf("%x", sha256.Sum256([]byte(want)))
	if c.rec != nil {
		return campaignLadder(c, cfg, busy/time.Duration(len(runMS)))
	}
	return nil
}

// campaignLadder is fleet_campaign's: the framework, then each job's
// preparation stages through core's own entry points (what runFleet does
// per job), then the scheduler alone on the prepared jobs. The ratio of
// the two halves says whether anatomy preparation or scheduling is slow.
func campaignLadder(c *child, cfg campaign.Config, runD time.Duration) error {
	var fw *core.Framework
	var err error
	frameworkD, _ := measure(sz.rungBudget, func() {
		if fw, err = core.NewFramework(machine.Catalog(), 5, cfg.Seed); err != nil {
			c.fail("ladder NewFramework: %v", err)
		}
	})
	if err != nil {
		return err
	}
	pool := []string{"CSP-2 Small", "CSP-2 EC", "CSP-1"}
	var prepareD, workloadD, predictD time.Duration
	predictions := 0
	jobs := make([]*fleet.Job, 0, len(cfg.Jobs))
	var last simcloud.Workload
	for _, j := range cfg.Jobs {
		dom, err := campaign.BuildGeometry(j.Geometry, j.Scale)
		if err != nil {
			return err
		}
		t := time.Now()
		anatomy, err := fw.PrepareAnatomy(j.Name, dom, lbm.Params{Tau: 0.9, UMax: 0.02})
		if err != nil {
			return err
		}
		prepareD += time.Since(t)
		t = time.Now()
		w, err := fw.Workload(anatomy, j.Ranks)
		if err != nil {
			return err
		}
		workloadD += time.Since(t)
		last = w
		fj := &fleet.Job{
			Name: j.Name, Workload: w, Steps: j.Steps, Priority: j.Priority, DeadlineS: j.DeadlineS,
			Tolerance: j.Tolerance, OnDemandOnly: j.OnDemandOnly,
			PerStep: map[string]float64{}, PredMFLUPS: map[string]float64{},
		}
		for _, abbrev := range pool {
			sys, err := fw.Provider.System(abbrev)
			if err != nil {
				return err
			}
			if j.Ranks > sys.MaxRanks() {
				continue
			}
			t = time.Now()
			pred, err := fw.PredictDirect(anatomy, abbrev, j.Ranks)
			if err != nil {
				return err
			}
			predictD += time.Since(t)
			predictions++
			fj.PerStep[abbrev], fj.PredMFLUPS[abbrev] = pred.SecondsPerStep, pred.MFLUPS
		}
		jobs = append(jobs, fj)
	}
	fcfg := fleet.Config{
		Seed: cfg.Seed, BudgetUSD: cfg.BudgetUSD, MaxRetries: cfg.Fleet.MaxRetries,
		BackoffBaseS: cfg.Fleet.BackoffBaseS, BackoffMaxS: cfg.Fleet.BackoffMaxS, BackoffJitter: cfg.Fleet.BackoffJitter,
		PreemptionPerNodeHour: cfg.Fleet.PreemptionPerNodeHour, Instances: cfg.Fleet.Instances,
	}
	var report *fleet.Report
	schedD, schedAllocs := measure(sz.rungBudget, func() {
		sched, err := fleet.NewScheduler(fcfg)
		if err == nil {
			report, err = sched.Run(jobs)
		}
		if err != nil {
			c.fail("ladder Scheduler.Run: %v", err)
		}
	})
	if report == nil {
		return fmt.Errorf("ladder: the scheduler produced no report")
	}
	preemptions := 0
	for _, e := range report.Events {
		if e.Type == fleet.EvPreempted {
			preemptions++
		}
	}
	sys, err := fw.Provider.System("CSP-1")
	if err != nil {
		return err
	}
	simD, _ := measure(sz.rungBudget, func() {
		if _, err := simcloud.Run(last, sys, 100, nil); err != nil {
			c.fail("ladder simcloud.Run: %v", err)
		}
	})

	nJobs := time.Duration(len(cfg.Jobs))
	events := float64(len(report.Events))
	c.layer("core.new_framework_ms", ms(frameworkD))
	c.layer("core.prepare_anatomy_ms", ms(prepareD/nJobs))
	c.layer("core.workload_ms", ms(workloadD/nJobs))
	c.layer("core.predict_direct_us", us(predictD/time.Duration(max(predictions, 1))))
	c.layer("fleet.sched_run_ms", ms(schedD))
	c.layer("fleet.events_per_run", events)
	c.layer("fleet.events_per_s", events/schedD.Seconds())
	c.layer("fleet.allocs_per_event", schedAllocs/events)
	c.layer("fleet.completed", float64(report.Completed))
	c.layer("fleet.shed", float64(report.Shed))
	c.layer("fleet.preemptions", float64(preemptions))
	c.layer("simcloud.run_us", us(simD))
	c.layer("campaign.prepare_frac", 1-schedD.Seconds()/runD.Seconds())
	c.rec.replay(c.root, false, []rung{
		{"campaign.run", runD}, {"core.new_framework", frameworkD}, {"core.prepare_anatomy", prepareD},
		{"core.workload", workloadD}, {"core.predict_direct", predictD}, {"fleet.sched_run", schedD},
	})
	return nil
}
