// Package campaign runs complete simulation campaigns from a declarative
// JSON configuration: a list of patient cases (geometry, resolution, job
// length), a total budget, and an optimization objective. It drives the
// full Figure 1 loop for each case — characterize once, tune per anatomy,
// recommend an instance, guard the job, record telemetry — which is the
// workflow a clinical simulation service would script.
package campaign

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/fleet"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// PhysicalConfig declares a job in clinical units; the campaign derives
// the lattice configuration (scale, timestep count, inlet velocity,
// pulsatile waveform) through internal/units instead of requiring the
// user to think in lattice quantities.
type PhysicalConfig struct {
	DiameterMM   float64 `json:"diameter_mm"`
	PeakSpeedMps float64 `json:"peak_speed_ms"`
	HeartRateHz  float64 `json:"heart_rate_hz,omitempty"` // 0 = steady
	SitesAcross  int     `json:"sites_across"`            // lattice resolution
	Beats        float64 `json:"beats"`                   // cardiac cycles to simulate
}

// JobConfig declares one patient case, either in lattice terms (Scale +
// Steps) or physically (Physical).
type JobConfig struct {
	Name     string  `json:"name"`
	Geometry string  `json:"geometry"` // a name in geometries
	Scale    float64 `json:"scale,omitempty"`
	Ranks    int     `json:"ranks"`
	Steps    int     `json:"steps,omitempty"`
	// Physical, when present, derives Scale, Steps and the solver
	// parameters from clinical quantities; Scale and Steps must then be
	// left unset.
	Physical *PhysicalConfig `json:"physical,omitempty"`
	// System pins the instance type; empty lets the dashboard recommend
	// one under the campaign objective.
	System string `json:"system,omitempty"`
	// Tolerance for the model-driven time guard (default 0.25).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Tier selects the accuracy tier of the prediction this job reports
	// and records ("tier0", "tier1", "tier2" or "auto"); empty keeps the
	// calibrated Tier 1 default. Placement and the guards are priced at
	// Tier 1 whatever the tier, since Tier 1 is what refinement corrects.
	Tier string `json:"tier,omitempty"`
	// Spot requests preemptible capacity for this job.
	Spot bool `json:"spot,omitempty"`

	// Fleet-backend scheduling contract (ignored by the sequential
	// runner): queue priority (higher places first), an absolute
	// simulated-time deadline in seconds (0 = none), and whether spot
	// pool capacity is off-limits for this job.
	Priority     int     `json:"priority,omitempty"`
	DeadlineS    float64 `json:"deadline_s,omitempty"`
	OnDemandOnly bool    `json:"on_demand_only,omitempty"`
}

// LatticeScale is the geometry scale the job builds at: its Scale, or
// for a physical job half its sites across the vessel.
func (j JobConfig) LatticeScale() float64 {
	if j.Physical != nil {
		return float64(j.Physical.SitesAcross) / 2
	}
	return j.Scale
}

// Config declares a whole campaign.
type Config struct {
	Seed      int64       `json:"seed"`
	BudgetUSD float64     `json:"budget_usd"`
	Objective string      `json:"objective"` // max-throughput|min-cost|min-time|max-value
	Deadline  float64     `json:"deadline_seconds,omitempty"`
	Retries   int         `json:"retries,omitempty"` // spot preemption retries; 0 is fleet.DefaultMaxRetries
	Jobs      []JobConfig `json:"jobs"`

	// Fleet, when present, selects the concurrent fleet-scheduler
	// backend (BackendFleet) over the sequential runner: jobs are placed
	// across this pool of simulated instances by priority and deadline.
	Fleet *FleetConfig `json:"fleet,omitempty"`
}

// Load parses and validates a campaign configuration.
func Load(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("campaign: parsing config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate checks the configuration before any money is spent.
func (c *Config) Validate() error {
	if c.BudgetUSD <= 0 {
		return fmt.Errorf("campaign: budget_usd %g must be positive", c.BudgetUSD)
	}
	if _, err := objective(c.Objective); err != nil {
		return err
	}
	if len(c.Jobs) == 0 {
		return fmt.Errorf("campaign: no jobs declared")
	}
	seen := map[string]bool{}
	for i := range c.Jobs {
		j := &c.Jobs[i]
		if j.Name == "" {
			return fmt.Errorf("campaign: job %d has no name", i)
		}
		if seen[j.Name] {
			return fmt.Errorf("campaign: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if _, err := geometryBuilder(j.Geometry); err != nil {
			return fmt.Errorf("campaign: job %q has %w", j.Name, err)
		}
		if j.Physical != nil {
			if j.Scale != 0 || j.Steps != 0 {
				return fmt.Errorf("campaign: job %q sets both physical and lattice quantities", j.Name)
			}
			ph := j.Physical
			if ph.DiameterMM <= 0 || ph.PeakSpeedMps <= 0 || ph.SitesAcross < 8 || ph.Beats <= 0 {
				return fmt.Errorf("campaign: job %q has incomplete physical spec %+v", j.Name, ph)
			}
		} else {
			if j.Scale <= 0 {
				return fmt.Errorf("campaign: job %q scale %g must be positive", j.Name, j.Scale)
			}
			if j.Steps < 1 {
				return fmt.Errorf("campaign: job %q needs positive steps", j.Name)
			}
		}
		if j.Ranks < 1 {
			return fmt.Errorf("campaign: job %q needs positive ranks", j.Name)
		}
		if j.Tolerance < 0 {
			return fmt.Errorf("campaign: job %q tolerance %g negative", j.Name, j.Tolerance)
		}
		if j.Tolerance == 0 {
			j.Tolerance = 0.25
		}
		if j.DeadlineS < 0 {
			return fmt.Errorf("campaign: job %q deadline_s %g negative", j.Name, j.DeadlineS)
		}
		switch j.Tier {
		case "", perfmodel.TierAuto, perfmodel.Tier0Physics, perfmodel.Tier1Calibrated, perfmodel.Tier2Measured:
		default:
			return fmt.Errorf("campaign: job %q tier %q must be one of %v (or empty for %q)",
				j.Name, j.Tier, perfmodel.ValidTiers(), perfmodel.Tier1Calibrated)
		}
	}
	if c.Fleet != nil {
		if err := c.fleetConfig().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// objective maps the config string to a dashboard objective.
func objective(s string) (dashboard.Objective, error) {
	obj, err := dashboard.ParseObjective(s)
	if err != nil {
		return 0, fmt.Errorf("campaign: unknown objective %q", s)
	}
	return obj, nil
}

// geometries is the one vocabulary of domain names — campaign files, the
// planning service and the CLIs all build through it — each at a scale
// that is the vessel radius in lattice sites.
var geometries = []struct {
	name  string
	build func(scale float64) (*geometry.Domain, error)
}{
	{"cylinder", func(s float64) (*geometry.Domain, error) { return geometry.Cylinder(int(8*s), s) }},
	{"aorta", geometry.Aorta},
	{"cerebral", func(s float64) (*geometry.Domain, error) { return geometry.Cerebral(s/2, 4) }},
	{"stenosis", func(s float64) (*geometry.Domain, error) {
		return geometry.StenosedCylinder(int(8*s), s, 0.5, s*0.75)
	}},
	{"bifurcation", geometry.Bifurcation},
}

// geometryBuilder looks a name up in geometries; the error of an unknown
// one lists the names there are.
func geometryBuilder(name string) (func(scale float64) (*geometry.Domain, error), error) {
	for _, g := range geometries {
		if g.name == name {
			return g.build, nil
		}
	}
	names := make([]string, len(geometries))
	for i, g := range geometries {
		names[i] = g.name
	}
	return nil, fmt.Errorf("unknown geometry %q (valid: %s)", name, strings.Join(names, ", "))
}

// BuildGeometry constructs a declared domain at the given scale. It is
// exported for the serving layer and the CLIs, which build workloads from
// the same vocabulary campaign configs use.
func BuildGeometry(name string, scale float64) (*geometry.Domain, error) {
	build, err := geometryBuilder(name)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return build(scale)
}

// resolve turns a job config into concrete lattice quantities: the
// geometry scale, the timestep count, the solver parameters, and any
// configuration warnings from the units check.
func resolve(j JobConfig) (scale float64, steps int, params lbm.Params, warnings []string, err error) {
	params = lbm.Params{Tau: 0.9, UMax: 0.02}
	if j.Physical == nil {
		return j.Scale, j.Steps, params, nil, nil
	}
	ph := j.Physical

	// Pick the relaxation time so the peak lattice speed lands at a safe
	// target (standard LBM practice: at fixed resolution, tau sets the
	// timestep and thus the velocity scale). Coarse grids at high
	// Reynolds push tau toward 1/2; the TRT operator keeps those stable.
	const targetU = 0.05
	re := ph.PeakSpeedMps * ph.DiameterMM * 1e-3 / units.BloodKinematicViscosity
	nuLat := targetU * float64(ph.SitesAcross) / re
	tau := 3*nuLat + 0.5
	switch {
	case tau < 0.505:
		return 0, 0, params, nil, fmt.Errorf(
			"campaign: job %q needs tau %.4f to reach lattice speed %.2f at Re %.0f — increase sites_across",
			j.Name, tau, targetU, re)
	case tau < 0.55:
		params.Collision = lbm.TRT
		warnings = append(warnings, fmt.Sprintf("tau %.3f near the stability limit: using TRT", tau))
	case tau > 2:
		tau = 2 // very low Re: cap tau, accept a slower lattice speed
	}
	params.Tau = tau

	conv, err := units.Convert(units.Physical{
		DiameterM:    ph.DiameterMM * 1e-3,
		PeakSpeedMps: ph.PeakSpeedMps,
		HeartRateHz:  ph.HeartRateHz,
	}, units.Lattice{SitesAcross: ph.SitesAcross, Tau: params.Tau})
	if err != nil {
		return 0, 0, params, nil, fmt.Errorf("campaign: job %q units: %w", j.Name, err)
	}
	warnings = append(warnings, conv.Check()...)
	scale = j.LatticeScale()
	params.UMax = conv.ULattice
	if ph.HeartRateHz > 0 {
		params.Pulsatile = lbm.Waveform{Period: conv.StepsPerBeat, Amplitude: 0.5}
		steps = int(ph.Beats * conv.StepsPerBeat)
	} else {
		// Steady flow: "beats" counts flow-through times D/U.
		flowThrough := ph.DiameterMM * 1e-3 / ph.PeakSpeedMps
		steps = conv.StepsForPhysicalTime(ph.Beats * flowThrough)
	}
	if steps < 1 {
		return 0, 0, params, warnings, fmt.Errorf("campaign: job %q resolves to %d steps", j.Name, steps)
	}
	return scale, steps, params, warnings, nil
}

// prepared is a job after phase two of Figure 1: its tuned anatomy under
// its own name, its resolved step count, and its units-check warnings,
// prefixed with the job name.
type prepared struct {
	anatomy  *core.Anatomy
	steps    int
	warnings []string
}

// latticeKey is what a campaign lattice is built from.
type latticeKey struct {
	geometry string
	scale    float64
	params   lbm.Params
}

// lattice is one distinct anatomy of a campaign: its key, the jobs on it
// in campaign order, and the union of their rank counts.
type lattice struct {
	latticeKey
	jobs  []int
	ranks []int
}

// prepareAll takes every job of a campaign through phase two before any
// of them runs, and returns them in campaign order. Jobs sharing a
// geometry, scale and parameter set share one lattice, built once with
// all their rank counts so its calibration sweep memoises every count it
// passes through. The distinct lattices are built at most
// min(GOMAXPROCS, lattices) at a time, largest scale first (ties in
// campaign order), so the two biggest transients overlap while few
// lattices are held and a small build ends the pass. Each job's
// decomposition is taken right after its lattice, so a rank count the
// lattice cannot take fails here, before anything is spent.
//
// ctx is checked before each build starts; builds already running finish
// (a build is uninterruptible), and then the pass returns ErrInterrupted.
// Of several failing jobs, the error is that of the earliest in campaign
// order, whichever build finished first. Anatomies are pure functions of
// their lattice, so the result does not depend on the order builds end
// in, and holding it keeps the anatomies whatever the cache evicts.
func prepareAll(ctx context.Context, fw *core.Framework, jobs []JobConfig) ([]prepared, error) {
	out := make([]prepared, len(jobs))
	errs := make([]error, len(jobs))
	index := map[latticeKey]*lattice{}
	var lattices []*lattice
	for i, j := range jobs {
		scale, steps, params, warnings, err := resolve(j)
		if err != nil {
			// No job after this one can be the earliest failure.
			errs[i] = err
			break
		}
		for k, w := range warnings {
			warnings[k] = j.Name + ": " + w
		}
		out[i] = prepared{steps: steps, warnings: warnings}
		k := latticeKey{j.Geometry, scale, params}
		l := index[k]
		if l == nil {
			l = &lattice{latticeKey: k}
			index[k] = l
			lattices = append(lattices, l)
		}
		l.jobs = append(l.jobs, i)
		if !slices.Contains(l.ranks, j.Ranks) {
			l.ranks = append(l.ranks, j.Ranks)
		}
	}
	slices.SortStableFunc(lattices, func(a, b *lattice) int { return cmp.Compare(b.scale, a.scale) })

	workers := make(chan struct{}, min(runtime.GOMAXPROCS(0), len(lattices)))
	var wg sync.WaitGroup
	var stopped error
	for _, l := range lattices {
		select {
		case workers <- struct{}{}: // a worker is free
		case <-ctx.Done():
		}
		if stopped = interrupted(ctx); stopped != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer func() { <-workers; wg.Done() }()
			for _, i := range l.jobs {
				a, err := prepare(ctx, fw, jobs[i], l)
				if err != nil {
					// The lattice's later jobs come after this one.
					errs[i] = err
					return
				}
				out[i].anatomy = a
			}
		}()
	}
	wg.Wait()
	if stopped != nil {
		return nil, stopped
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prepare fetches job j's anatomy of lattice l from the framework's cache
// under the job's name, and decomposes it over the job's ranks. The first
// job of a lattice builds it — the geometry, then the generalized model
// calibrated with every rank count of l — and the lattice's other jobs hit.
// The build runs to its end whatever happens to ctx: a campaign stops at
// the clean points prepareAll and the backends check, never inside a
// build, so the preparation keeps ctx's values and drops its cancellation.
func prepare(ctx context.Context, fw *core.Framework, j JobConfig, l *lattice) (*core.Anatomy, error) {
	anatomy, err := fw.CachedAnatomy(context.WithoutCancel(ctx), j.Name, l.geometry, l.scale, l.params,
		func() (*geometry.Domain, error) { return BuildGeometry(l.geometry, l.scale) }, l.ranks...)
	if err != nil {
		return nil, fmt.Errorf("campaign: preparing %q: %w", j.Name, err)
	}
	if _, err := anatomy.Workload(j.Ranks); err != nil {
		return nil, fmt.Errorf("campaign: decomposing %q: %w", j.Name, err)
	}
	return anatomy, nil
}

// Summary reports a finished campaign: one fleet job report per job the
// scheduler placed, in campaign order.
type Summary struct {
	Outcomes []fleet.JobReport
	Skipped  []string // jobs the budget left no room for
	Warnings []string // units-check findings, prefixed with the job name
	SpentUSD float64
}

// Render formats the summary as a text report.
func (s Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-12s %10s %12s %12s %10s %s\n",
		"job", "system", "steps", "predicted", "measured", "USD", "status")
	for _, o := range s.Outcomes {
		status := "completed"
		if !o.Completed {
			status = "aborted: " + o.ShedReason
		}
		fmt.Fprintf(&b, "%-22s %-12s %10d %12.2f %12.2f %10.4f %s\n",
			o.Name, o.System, o.StepsDone, o.Pred.MFLUPS, o.MFLUPS, o.USD, status)
	}
	for _, name := range s.Skipped {
		fmt.Fprintf(&b, "%-22s %-12s %10s %12s %12s %10s %s\n",
			name, "-", "-", "-", "-", "-", "skipped (budget)")
	}
	for _, w := range s.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	fmt.Fprintf(&b, "total spend: $%.4f\n", s.SpentUSD)
	return b.String()
}

// runSerial is the sequential engine behind Runner, the Figure 1 loop one
// job at a time: every job is prepared first (prepareAll), so a campaign
// with a job that cannot be prepared spends nothing; then each job in
// turn is recommended a system (unless pinned) and run as a one-job fleet
// on a one-instance pool of it, under what is left of the budget. Each
// job's report goes into the monitor and the provider's clock moves past
// it, so the next job is planned on a store that already holds this one.
// ctx is checked before each lattice build and between jobs: an
// interruption returns the partial summary under ErrInterrupted with
// every completed job's spend and telemetry intact.
func runSerial(ctx context.Context, fw *core.Framework, cfg Config) (Summary, error) {
	if err := cfg.Validate(); err != nil {
		return Summary{}, err
	}
	obj, err := objective(cfg.Objective)
	if err != nil {
		return Summary{}, err
	}
	var summary Summary
	ready, err := prepareAll(ctx, fw, cfg.Jobs)
	if err != nil {
		return summary, err
	}
	for i, j := range cfg.Jobs {
		if err := interrupted(ctx); err != nil {
			return summary, err
		}
		anatomy, steps := ready[i].anatomy, ready[i].steps
		summary.Warnings = append(summary.Warnings, ready[i].warnings...)
		system := j.System
		if system == "" {
			best, err := fw.Recommend(anatomy, j.Ranks, steps, obj, cfg.Deadline)
			if err != nil {
				return Summary{}, fmt.Errorf("campaign: recommending for %q: %w", j.Name, err)
			}
			system = best.System
		}
		// A fleet budget of 0 is unlimited, so a job with nothing left
		// gets no scheduler.
		left := cfg.BudgetUSD - summary.SpentUSD
		if left <= 0 {
			summary.Skipped = append(summary.Skipped, j.Name)
			continue
		}
		fj, err := fleetJob(fw, anatomy, j, steps, []string{system})
		if err != nil {
			return Summary{}, err
		}
		if len(fj.PerStep) == 0 {
			return Summary{}, fmt.Errorf("campaign: %s cannot run job %q (%d ranks)", system, j.Name, j.Ranks)
		}
		fj.OnDemandOnly = false // the sequential runner honours Spot alone
		sched, err := fleet.NewScheduler(fleet.Config{
			Seed:       cfg.Seed + int64(i),
			BudgetUSD:  left,
			MaxRetries: cfg.Retries,
			Instances:  []fleet.InstanceConfig{{System: system, Count: 1, Spot: j.Spot}},
		})
		if err != nil {
			return Summary{}, err
		}
		report, err := sched.Run([]*fleet.Job{fj})
		if err != nil {
			return Summary{}, err
		}
		// The governor sheds a job whose predicted cost exceeds what is
		// left before it starts: skipped for budget, as above.
		if r := report.Jobs[0]; r.Attempts > 0 {
			summary.Outcomes = append(summary.Outcomes, r)
		} else {
			summary.Skipped = append(summary.Skipped, j.Name)
		}
		summary.SpentUSD += report.SpentUSD
		if err := report.ExportMonitor(&fw.Monitor, fw.Provider.Clock()); err != nil {
			return Summary{}, err
		}
		if err := fw.Provider.Advance(report.MakespanS); err != nil {
			return Summary{}, err
		}
	}
	return summary, nil
}
