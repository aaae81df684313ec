// Package cloud simulates a cloud service provider's control plane: node
// provisioning with realistic delays, pay-as-you-go metering, and a
// performance-model-driven budget guard that hard-stops jobs running
// beyond their predicted time or dollar envelope — the paper's mechanism
// for "protection against inadvertent cost overruns". Simulated epoch time
// lets campaigns span days (the 7-day noise study) in microseconds of real
// time.
package cloud

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simcloud"
	"repro/internal/units"
)

// ErrBudgetExhausted reports that a campaign ran out of budget while a
// preempted job still had steps to resume. The partial, aggregated result
// up to that point is still returned alongside it.
var ErrBudgetExhausted = errors.New("cloud: campaign budget exhausted")

// Provider is a simulated CSP offering the systems of a catalog.
type Provider struct {
	systems map[string]*machine.System
	clock   float64 // simulated epoch seconds
	rng     *rand.Rand
	nextID  int
	spend   float64
	ledger  []LedgerEntry

	// PreemptionPerNodeHour is the spot-reclaim hazard rate. It defaults
	// to SpotPreemptionPerHour; tests and what-if studies may raise it to
	// exercise preemption on short simulated jobs.
	PreemptionPerNodeHour float64
}

// LedgerEntry records one billing event.
type LedgerEntry struct {
	AllocationID int
	System       string
	Nodes        int
	Seconds      float64
	USD          float64
	Description  string
}

// NewProvider creates a provider over the given systems. seed drives all
// noise in provisioning and job execution, making campaigns reproducible.
func NewProvider(systems []*machine.System, seed int64) *Provider {
	p := &Provider{
		systems:               make(map[string]*machine.System, len(systems)),
		rng:                   rand.New(rand.NewSource(seed)),
		PreemptionPerNodeHour: SpotPreemptionPerHour,
	}
	for _, s := range systems {
		p.systems[s.Abbrev] = s
	}
	return p
}

// Clock returns the simulated epoch time in seconds.
func (p *Provider) Clock() float64 { return p.clock }

// Advance moves simulated time forward (e.g. the 6-hour intervals of the
// noise study). Negative durations are rejected.
func (p *Provider) Advance(seconds float64) error {
	if seconds < 0 {
		return fmt.Errorf("cloud: cannot advance time by %g", seconds)
	}
	p.clock += seconds
	return nil
}

// System looks up a catalog system by abbreviation.
func (p *Provider) System(abbrev string) (*machine.System, error) {
	s, ok := p.systems[abbrev]
	if !ok {
		return nil, fmt.Errorf("cloud: provider does not offer %q", abbrev)
	}
	return s, nil
}

// TotalSpend returns the accumulated bill in USD.
func (p *Provider) TotalSpend() float64 { return p.spend }

// Ledger returns a copy of all billing events.
func (p *Provider) Ledger() []LedgerEntry {
	return append([]LedgerEntry(nil), p.ledger...)
}

// charge meters one billing event.
func (p *Provider) charge(e LedgerEntry) {
	p.spend += e.USD
	p.ledger = append(p.ledger, e)
}

// JobSpec describes one simulation job plus its model-driven guard rails.
type JobSpec struct {
	Workload simcloud.Workload
	System   string
	Steps    int

	// PredictedSeconds is the performance model's runtime estimate. When
	// positive, the guard aborts the job once elapsed compute time exceeds
	// PredictedSeconds*(1+Tolerance) — the paper's "10% tolerance on the
	// prediction ... hard stop".
	PredictedSeconds float64
	Tolerance        float64

	// MaxUSD, when positive, hard-stops the job when metered cost reaches
	// it regardless of the time guard.
	MaxUSD float64

	// Spot requests preemptible capacity: billed at SpotDiscount of the
	// on-demand rate, but the provider may reclaim the nodes mid-run
	// (the job ends preempted with partial steps; a campaign configured
	// to retry resumes the remainder, modeling checkpoint/restart).
	Spot bool
}

// Spot market constants: the discount relative to on-demand pricing and
// the reclaim hazard, expressed as expected preemptions per node-hour.
// Both are synthetic but proportioned like 2022-era spot markets.
const (
	SpotDiscount          = 0.30
	SpotPreemptionPerHour = 1.5
)

// JobResult reports a completed or aborted job.
type JobResult struct {
	simcloud.Result
	Allocation   int
	Aborted      bool
	Preempted    bool // the spot market reclaimed the nodes
	AbortReason  string
	StepsDone    int
	USD          float64 // metered cost of this job (provisioned node time)
	WallSeconds  float64 // compute time plus provisioning delay
	ProvisionSec float64
}

// guardChunks is how many slices a guarded job is metered in; the guard
// can only trip at a slice boundary, like a scheduler polling a job.
const guardChunks = 20

// RunJob provisions nodes, executes the workload in metered slices with
// the budget guard active, releases the nodes, and bills actual usage.
func (p *Provider) RunJob(spec JobSpec) (JobResult, error) {
	sys, err := p.System(spec.System)
	if err != nil {
		return JobResult{}, err
	}
	if spec.Steps <= 0 {
		return JobResult{}, fmt.Errorf("cloud: job needs positive steps, got %d", spec.Steps)
	}
	ranks := len(spec.Workload.Tasks)
	if ranks == 0 {
		return JobResult{}, fmt.Errorf("cloud: job workload is empty")
	}
	if ranks > sys.MaxRanks() {
		return JobResult{}, fmt.Errorf("cloud: %d ranks exceed %s capacity %d", ranks, spec.System, sys.MaxRanks())
	}

	// Provisioning: jittered delay, then the meter starts.
	delay := sys.ProvisionDelayS * (0.8 + 0.4*p.rng.Float64())
	p.clock += delay
	p.nextID++
	res := JobResult{Allocation: p.nextID, ProvisionSec: delay}

	timeLimit := 0.0
	if spec.PredictedSeconds > 0 {
		timeLimit = spec.PredictedSeconds * (1 + spec.Tolerance)
	}

	rate := 1.0
	if spec.Spot {
		rate = SpotDiscount
	}
	chunk := (spec.Steps + guardChunks - 1) / guardChunks
	var eff simcloud.Result
	for done := 0; done < spec.Steps; {
		n := chunk
		if done+n > spec.Steps {
			n = spec.Steps - done
		}
		r, err := simcloud.Run(spec.Workload, sys, n, p.rng)
		if err != nil {
			return JobResult{}, err
		}
		eff = r
		done += n
		res.StepsDone = done
		res.WallSeconds += r.Seconds
		res.USD = sys.JobCost(ranks, res.WallSeconds) * rate
		if spec.Spot {
			// Reclaim hazard over this slice's node-time.
			nodeHours := float64(sys.Nodes(ranks)) * units.SecondsToHours(r.Seconds)
			if p.rng.Float64() < 1-math.Exp(-p.PreemptionPerNodeHour*nodeHours) {
				res.Aborted = true
				res.Preempted = true
				res.AbortReason = "spot capacity reclaimed by provider"
				break
			}
		}
		if done >= spec.Steps {
			break // finished: the guard only interrupts remaining work
		}
		if timeLimit > 0 && res.WallSeconds > timeLimit {
			res.Aborted = true
			res.AbortReason = fmt.Sprintf("time guard: %.1fs exceeds predicted %.1fs +%.0f%%",
				res.WallSeconds, spec.PredictedSeconds, spec.Tolerance*100)
			break
		}
		if spec.MaxUSD > 0 && res.USD >= spec.MaxUSD {
			res.Aborted = true
			res.AbortReason = fmt.Sprintf("cost guard: $%.2f reached cap $%.2f", res.USD, spec.MaxUSD)
			break
		}
	}
	res.Result = eff
	res.Result.Steps = res.StepsDone
	res.Result.Seconds = res.WallSeconds
	if res.WallSeconds > 0 {
		res.Result.MFLUPS = float64(spec.Workload.Points) * float64(res.StepsDone) / res.WallSeconds / 1e6
	}
	res.Result.CostUSD = res.USD
	p.clock += res.WallSeconds
	res.WallSeconds += delay

	p.charge(LedgerEntry{
		AllocationID: res.Allocation,
		System:       spec.System,
		Nodes:        sys.Nodes(ranks),
		Seconds:      res.Result.Seconds,
		USD:          res.USD,
		Description:  fmt.Sprintf("job %q: %d/%d steps", spec.Workload.Name, res.StepsDone, spec.Steps),
	})
	return res, nil
}

// Campaign runs a sequence of jobs under a total dollar budget, skipping
// jobs once the budget is exhausted.
type Campaign struct {
	Provider  *Provider
	BudgetUSD float64

	// MaxRetries resumes spot-preempted jobs from their completed step
	// count (checkpoint/restart semantics) up to this many times each.
	MaxRetries int

	// Trace, Metrics and Root optionally attach observability: each job
	// gets a span on the provider's simulated clock with one child per
	// attempt, and preemptions/retries count into the registry. Nil
	// values disable instrumentation.
	Trace   *obs.Tracer
	Metrics *obs.Registry
	Root    *obs.Span

	Results []JobResult
	Skipped []string // names of jobs not started for lack of budget
}

// Run executes the specs in order. A job is started only if the remaining
// budget covers its worst-case guard cost (its MaxUSD if set, otherwise
// an unguarded job is always started). Returns the first hard error.
func (c *Campaign) Run(specs []JobSpec) error {
	for _, spec := range specs {
		remaining := c.BudgetUSD - c.Provider.TotalSpend()
		if spec.MaxUSD > 0 && spec.MaxUSD > remaining {
			c.Skipped = append(c.Skipped, spec.Workload.Name)
			continue
		}
		if remaining <= 0 {
			c.Skipped = append(c.Skipped, spec.Workload.Name)
			continue
		}
		res, err := c.runJobObserved(spec)
		if errors.Is(err, ErrBudgetExhausted) {
			// The job's completed attempts are real, billed work: keep the
			// partial result. Subsequent specs are skipped by the remaining-
			// budget check above.
			c.Results = append(c.Results, res)
			continue
		}
		if err != nil {
			return fmt.Errorf("cloud: campaign job %q: %w", spec.Workload.Name, err)
		}
		c.Results = append(c.Results, res)
	}
	return nil
}

// resumeSpec derives the checkpoint/restart spec for the steps a preempted
// attempt left unfinished. The time guard is rescaled from the *previous*
// attempt's spec at its per-step rate, so chained resumes keep the original
// prediction's seconds-per-step exactly instead of compounding a scale
// factor across attempts.
func resumeSpec(prev JobSpec, stepsDone int) JobSpec {
	resume := prev
	resume.Steps = prev.Steps - stepsDone
	if resume.PredictedSeconds > 0 {
		perStep := prev.PredictedSeconds / float64(prev.Steps)
		resume.PredictedSeconds = perStep * float64(resume.Steps)
	}
	return resume
}

// runJobObserved wraps runWithRetries in the job's lifecycle span on its
// own track, stamped with the simulated clock at start and end.
func (c *Campaign) runJobObserved(spec JobSpec) (JobResult, error) {
	span := c.Trace.StartChild(c.Root, "cloud.job", c.Provider.Clock())
	span.SetTrack("cloud:" + spec.Workload.Name)
	span.SetAttr("name", spec.Workload.Name)
	span.SetAttr("system", spec.System)
	span.SetAttr("steps", strconv.Itoa(spec.Steps))
	if spec.Spot {
		span.SetAttr("spot", "true")
	}
	defer func() { span.End(c.Provider.Clock()) }()
	c.Metrics.Counter("cloud_jobs_total").Inc()

	res, err := c.runWithRetries(spec, span)
	switch {
	case errors.Is(err, ErrBudgetExhausted):
		span.SetAttr("outcome", "budget_exhausted")
		c.Metrics.Counter("cloud_budget_exhausted_total").Inc()
	case err != nil:
		span.SetAttr("outcome", "error")
	case res.Aborted:
		span.SetAttr("outcome", "aborted")
	default:
		span.SetAttr("outcome", "completed")
		span.SetAttrF("usd", res.USD)
	}
	return res, err
}

// runAttempt executes one provisioning+compute attempt inside its own
// span and books its outcome into the registry.
func (c *Campaign) runAttempt(spec JobSpec, parent *obs.Span, n int) (JobResult, error) {
	span := c.Trace.StartChild(parent, "attempt", c.Provider.Clock())
	span.SetAttr("attempt", strconv.Itoa(n))
	defer func() { span.End(c.Provider.Clock()) }()

	res, err := c.Provider.RunJob(spec)
	if err != nil {
		span.SetAttr("outcome", "error")
		return res, err
	}
	span.SetAttr("steps", strconv.Itoa(res.StepsDone))
	span.SetAttrF("usd", res.USD)
	switch {
	case res.Preempted:
		span.SetAttr("outcome", "preempted")
		c.Metrics.Counter("cloud_preemptions_total").Inc()
	case res.Aborted:
		span.SetAttr("outcome", "aborted")
	default:
		span.SetAttr("outcome", "completed")
	}
	return res, nil
}

// runWithRetries executes one job, resuming spot preemptions from the
// completed step count (checkpoint/restart) up to MaxRetries times. The
// returned result aggregates steps, wall time and cost across attempts.
// Before each resume the remaining campaign budget is re-checked: when it
// is gone the partial result is returned with ErrBudgetExhausted, and the
// resume's cost guard is clamped so one attempt cannot overspend what is
// left.
func (c *Campaign) runWithRetries(spec JobSpec, span *obs.Span) (JobResult, error) {
	total, err := c.runAttempt(spec, span, 1)
	if err != nil {
		return JobResult{}, err
	}
	prev, prevDone := spec, total.StepsDone
	for retry := 0; total.Preempted && retry < c.MaxRetries; retry++ {
		if spec.Steps <= total.StepsDone {
			break
		}
		remaining := c.BudgetUSD - c.Provider.TotalSpend()
		if remaining <= 0 {
			return total, fmt.Errorf("resuming %q after %d/%d steps: %w",
				spec.Workload.Name, total.StepsDone, spec.Steps, ErrBudgetExhausted)
		}
		resume := resumeSpec(prev, prevDone)
		if resume.MaxUSD <= 0 || resume.MaxUSD > remaining {
			resume.MaxUSD = remaining
		}
		c.Metrics.Counter("cloud_retries_total").Inc()
		next, err := c.runAttempt(resume, span, retry+2)
		if err != nil {
			return JobResult{}, err
		}
		prev, prevDone = resume, next.StepsDone
		total.StepsDone += next.StepsDone
		total.WallSeconds += next.WallSeconds
		total.ProvisionSec += next.ProvisionSec
		total.USD += next.USD
		total.Preempted = next.Preempted
		total.Aborted = next.Aborted
		total.AbortReason = next.AbortReason
		total.Result.Steps = total.StepsDone
		total.Result.Seconds += next.Result.Seconds
		if total.Result.Seconds > 0 {
			total.Result.MFLUPS = float64(spec.Workload.Points) * float64(total.StepsDone) /
				total.Result.Seconds / 1e6
		}
		total.Result.CostUSD = total.USD
	}
	return total, nil
}
