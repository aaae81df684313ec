package campaign

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// FleetConfig declares the fleet execution backend inside a campaign
// configuration: the instance pool and the fault-handling policy. When a
// campaign carries one, Runner schedules all jobs concurrently across
// the pool instead of running them one at a time on one instance.
type FleetConfig struct {
	Instances             []fleet.InstanceConfig `json:"instances"`
	MaxRetries            int                    `json:"max_retries,omitempty"`
	BackoffBaseS          float64                `json:"backoff_base_s,omitempty"`
	BackoffMaxS           float64                `json:"backoff_max_s,omitempty"`
	BackoffJitter         float64                `json:"backoff_jitter,omitempty"`
	PreemptionPerNodeHour float64                `json:"preemption_per_node_hour,omitempty"`

	// SLOs are the objectives evaluated over the finished run's fleet
	// metrics (completions+sheds as the request stream, queue wait as
	// the latency histogram). nil takes the stock fleet objectives; an
	// empty non-nil slice disables SLO evaluation. A declared objective
	// with WindowS <= 0 covers the whole run.
	SLOs []obs.SLO `json:"slos,omitempty"`
}

// fleetConfig assembles the scheduler config from the campaign's budget,
// seed, and fleet declaration.
func (c Config) fleetConfig() fleet.Config {
	f := c.Fleet
	return fleet.Config{
		Seed:                  c.Seed,
		BudgetUSD:             c.BudgetUSD,
		MaxRetries:            f.MaxRetries,
		BackoffBaseS:          f.BackoffBaseS,
		BackoffMaxS:           f.BackoffMaxS,
		BackoffJitter:         f.BackoffJitter,
		PreemptionPerNodeHour: f.PreemptionPerNodeHour,
		Instances:             f.Instances,
	}
}

// FleetSummary reports a fleet-scheduled campaign.
type FleetSummary struct {
	Report   *fleet.Report
	Warnings []string // units-check findings, prefixed with the job name

	// Trace and Metrics carry the campaign's observability record: a
	// span tree rooted at the campaign span (seeded from the campaign
	// seed, so same-seed runs export byte-identical Chrome traces) and
	// the scheduler's counters, histograms, and per-job gauges.
	Trace   *obs.Tracer
	Metrics *obs.Registry

	// SLOs and Alerts are the post-run evaluation of the campaign's
	// objectives over the fleet metrics (nil when disabled). Alerts is
	// the deterministic transition log: same seed, same alerts.
	SLOs   []obs.SLOStatus
	Alerts []obs.SLOAlert
}

// Render formats the full fleet report: event log, per-instance
// utilization, and the per-job cost/deadline table.
func (s FleetSummary) Render() string {
	var b strings.Builder
	b.WriteString("=== event log ===\n")
	b.WriteString(s.Report.RenderEvents())
	b.WriteString("\n=== instance utilization ===\n")
	b.WriteString(s.Report.RenderUtilization())
	b.WriteString("\n=== jobs ===\n")
	b.WriteString(s.Report.RenderJobs())
	if s.Trace != nil {
		b.WriteString("\n")
		b.WriteString(dashboard.TracePanel(s.Trace.Spans(), s.Metrics.Snapshot()))
	}
	if s.SLOs != nil {
		b.WriteString("\n")
		b.WriteString(dashboard.SLOPanel(s.SLOs, s.Alerts))
	}
	for _, w := range s.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	return b.String()
}

// fleetSLOs resolves the effective objectives for a run that ended at
// makespanS: nil declarations take the stock fleet objectives, and any
// objective without a window covers the whole run. The input slice is
// never mutated.
func fleetSLOs(declared []obs.SLO, makespanS float64) []obs.SLO {
	slos := declared
	if slos == nil {
		// Stock fleet objectives: at most 5% of jobs shed, and 90% of
		// placements waiting under 1024 s (a fleet_queue_wait_s bucket
		// bound, so the check is exact, not interpolated).
		slos = []obs.SLO{
			{Name: "fleet-completion", TargetAvailability: 0.95},
			{Name: "queue-wait-p90", LatencyQuantile: 0.90, LatencyBoundS: 1024},
		}
	}
	out := append([]obs.SLO(nil), slos...)
	for i := range out {
		if out[i].WindowS <= 0 {
			out[i].WindowS = makespanS + 1
		}
	}
	return out
}

// fleetSLOObs assembles the run's single cumulative observation from
// the scheduler's metrics: completions+sheds as the request total,
// sheds as the errors, and the queue-wait histogram (merged across
// label sets) as the latency distribution.
func fleetSLOObs(atS float64, metrics []obs.Metric) obs.SLOObs {
	o := obs.SLOObs{AtS: atS}
	for _, m := range metrics {
		switch {
		case m.Type == "counter" && (m.Name == "fleet_completions_total" || m.Name == "fleet_sheds_total"):
			o.Total += m.Value
			if m.Name == "fleet_sheds_total" {
				o.Errors += m.Value
			}
		case m.Type == "histogram" && m.Name == "fleet_queue_wait_s":
			if o.LatBounds == nil {
				o.LatBounds = append([]float64(nil), m.BucketLE...)
				o.LatCounts = make([]uint64, len(m.Counts))
			}
			if len(m.Counts) != len(o.LatCounts) {
				continue
			}
			for i, c := range m.Counts {
				o.LatCounts[i] += c
			}
			o.LatCount += m.Count
		}
	}
	return o
}

// runFleet executes the campaign on the fleet backend, the engine
// behind Runner: every job is prepared through the Figure 1 loop
// (anatomy, tuned model, per-system predictions), then the whole queue
// is scheduled concurrently across the declared instance pool.
// Completed jobs are exported into the framework's monitor, the
// refinement store. ctx is checked between job preparations and before
// the scheduler starts; the discrete-event schedule itself runs to
// completion once started (it simulates time rather than spending it).
func runFleet(ctx context.Context, fw *core.Framework, cfg Config) (FleetSummary, error) {
	if cfg.Fleet == nil {
		return FleetSummary{}, fmt.Errorf("campaign: no fleet declared in config")
	}
	if err := cfg.Validate(); err != nil {
		return FleetSummary{}, err
	}
	fcfg := cfg.fleetConfig()
	sched, err := fleet.NewScheduler(fcfg)
	if err != nil {
		return FleetSummary{}, err
	}

	// The distinct pool systems, in declaration order, for per-system
	// model predictions.
	var poolSystems []string
	seen := map[string]bool{}
	for _, ic := range fcfg.Instances {
		if !seen[ic.System] {
			seen[ic.System] = true
			poolSystems = append(poolSystems, ic.System)
		}
	}

	// Root the campaign span: job preparation happens inside it (zero
	// simulated duration, real wall duration), the fleet span nests under
	// it, and it closes at the fleet's final makespan.
	var summary FleetSummary
	summary.Trace = obs.NewTracer(cfg.Seed)
	summary.Metrics = obs.NewRegistry()
	root := summary.Trace.Start("campaign", 0)
	root.SetAttr("jobs", fmt.Sprintf("%d", len(cfg.Jobs)))
	endS := 0.0
	defer func() { root.End(endS) }()

	prep := summary.Trace.StartChild(root, "prepare", 0)
	defer prep.End(0) // closes the span on early error returns; the first End below wins otherwise
	jobs := make([]*fleet.Job, 0, len(cfg.Jobs))
	for _, j := range cfg.Jobs {
		if err := interrupted(ctx); err != nil {
			return FleetSummary{}, err
		}
		anatomy, steps, warnings, err := prepare(ctx, fw, j)
		if err != nil {
			return FleetSummary{}, err
		}
		summary.Warnings = append(summary.Warnings, warnings...)
		w, err := fw.Workload(anatomy, j.Ranks)
		if err != nil {
			return FleetSummary{}, fmt.Errorf("campaign: decomposing %q: %w", j.Name, err)
		}

		fj := &fleet.Job{
			Name:         j.Name,
			Workload:     w,
			Steps:        steps,
			Priority:     j.Priority,
			DeadlineS:    j.DeadlineS,
			Tolerance:    j.Tolerance,
			OnDemandOnly: j.OnDemandOnly,
			PerStep:      map[string]float64{},
			PredMFLUPS:   map[string]float64{},
			PredTier:     map[string]string{},
		}
		if j.System != "" {
			if !seen[j.System] {
				return FleetSummary{}, fmt.Errorf(
					"campaign: job %q pins system %q, which the fleet pool does not offer", j.Name, j.System)
			}
			fj.Systems = []string{j.System}
		}
		// Model-driven placement: the paper's per-anatomy predictions
		// priced on every pool system the job fits on.
		for _, abbrev := range poolSystems {
			sys, err := fw.Provider.System(abbrev)
			if err != nil {
				continue // pool system outside this framework's catalog
			}
			if j.Ranks > sys.MaxRanks() {
				continue
			}
			pred, err := fw.Predict(anatomy, core.Query{System: abbrev, Model: perfmodel.ModelDirect, Ranks: j.Ranks, Tier: j.Tier})
			if err != nil {
				return FleetSummary{}, fmt.Errorf("campaign: predicting %q on %s: %w", j.Name, abbrev, err)
			}
			fj.PerStep[abbrev] = pred.SecondsPerStep
			fj.PredMFLUPS[abbrev] = pred.MFLUPS
			fj.PredTier[abbrev] = pred.Tier
		}
		jobs = append(jobs, fj)
	}
	prep.End(0)

	sched.Trace = summary.Trace
	sched.Metrics = summary.Metrics
	sched.Root = root

	if err := interrupted(ctx); err != nil {
		return FleetSummary{}, err
	}
	report, err := sched.Run(jobs)
	if err != nil {
		return FleetSummary{}, err
	}
	summary.Report = report
	endS = report.MakespanS

	// Judge the run against its objectives on the fleet's own metrics:
	// completions plus sheds form the request stream (a shed is the
	// fleet's 5xx), queue wait is the latency histogram, and the single
	// observation lands at the final makespan so whole-run windows see
	// everything. One observation can still fire alerts — the tracker
	// differences against the zero origin.
	if slos := fleetSLOs(cfg.Fleet.SLOs, report.MakespanS); len(slos) > 0 {
		tracker := obs.NewSLOTracker(slos)
		tracker.Observe(fleetSLOObs(report.MakespanS, summary.Metrics.Snapshot()))
		summary.SLOs = tracker.Status()
		summary.Alerts = tracker.Alerts()
	}

	// Close the loop: every completed job becomes one sample on the
	// framework's timeline, which then moves past the run so whatever
	// this framework does next is stamped after it.
	if err := report.ExportMonitor(&fw.Monitor, fw.Provider.Clock()); err != nil {
		return summary, err
	}
	return summary, fw.Provider.Advance(report.MakespanS)
}
