package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/cloud"
	"repro/internal/obs"
)

// Scheduler runs job queues over the instance pool. Create one with
// NewScheduler; a Scheduler is single-use (Run consumes it).
type Scheduler struct {
	// Trace and Metrics optionally attach observability; set them before
	// Run. Nil values disable instrumentation (every obs call site is a
	// nil-safe no-op). Root, when set, parents the fleet span — a
	// campaign roots its span here.
	Trace   *obs.Tracer
	Metrics *obs.Registry
	Root    *obs.Span

	cfg   Config
	insts []*instance
	gov   governor
	rng   *rand.Rand // event-loop RNG: backoff jitter only

	clock  float64
	events []Event
	eseq   int

	queue      jobQueue
	parked     []*jobState
	states     []*jobState
	unfinished int
}

// NewScheduler validates the config and builds the instance pool.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	insts, err := buildInstances(cfg)
	if err != nil {
		return nil, err
	}
	return &Scheduler{
		cfg:   cfg,
		insts: insts,
		gov:   governor{budget: cfg.BudgetUSD},
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// log appends one event at the current simulated time.
func (s *Scheduler) log(t EventType, job, inst, detail string) {
	s.events = append(s.events, Event{
		TimeS: s.clock, Seq: s.eseq, Type: t, Job: job, Instance: inst, Detail: detail,
	})
	s.eseq++
}

// estimate is the model's view of one candidate placement. A system the
// job carries no prediction for prices at zero: unguarded, and placed
// as if free.
type estimate struct {
	perStep  float64
	seconds  float64 // predicted compute time for the remaining steps
	finishAt float64 // predicted completion in simulated time
	usd      float64 // predicted metered cost at the instance's rate
	feasible bool    // meets the job's deadline (vacuously true without one)
}

// estimateOn prices the job's remaining steps on an instance.
func (s *Scheduler) estimateOn(j *jobState, inst *instance) estimate {
	e := estimate{perStep: j.PerStep[inst.sys.Abbrev]}
	e.seconds = e.perStep * float64(j.remaining())
	e.finishAt = s.clock + inst.sys.ProvisionDelayS + e.seconds
	rate := 1.0
	if inst.spot {
		rate = cloud.SpotDiscount
	}
	if e.seconds > 0 {
		e.usd = inst.sys.JobCost(j.ranks, e.seconds) * rate
	}
	e.feasible = j.DeadlineS <= 0 || e.finishAt <= j.DeadlineS
	return e
}

// compatible reports whether the job may ever run on the instance.
func (j *jobState) compatible(inst *instance) bool {
	if j.ranks > inst.sys.MaxRanks() {
		return false
	}
	if j.OnDemandOnly && inst.spot {
		return false
	}
	if len(j.Systems) == 0 {
		return true
	}
	for _, want := range j.Systems {
		if want == inst.sys.Abbrev {
			return true
		}
	}
	return false
}

// choose picks the placement for a job: the cheapest idle instance whose
// predicted completion meets the deadline, falling back to the earliest
// predicted finish when no idle instance can. Ties break on instance
// index, keeping placement deterministic.
func (s *Scheduler) choose(j *jobState) (*instance, estimate, bool) {
	var best *instance
	var bestE estimate
	better := func(e estimate, inst *instance) bool {
		if best == nil {
			return true
		}
		if e.feasible != bestE.feasible {
			return e.feasible
		}
		if e.feasible {
			if e.usd != bestE.usd {
				return e.usd < bestE.usd
			}
		}
		if e.finishAt != bestE.finishAt {
			return e.finishAt < bestE.finishAt
		}
		return false
	}
	for _, inst := range s.insts {
		if inst.running != nil || !j.compatible(inst) {
			continue
		}
		e := s.estimateOn(j, inst)
		if better(e, inst) {
			best, bestE = inst, e
		}
	}
	return best, bestE, best != nil
}

// attemptCap bounds one attempt's metered cost: the uncommitted budget
// (plus this job's own reservation) and the predicted-cost overrun
// guard, whichever is tighter.
func (s *Scheduler) attemptCap(j *jobState, e estimate) float64 {
	cap := 0.0
	tighten := func(c float64) {
		if c > 0 && (cap <= 0 || c < cap) {
			cap = c
		}
	}
	if s.gov.budget > 0 {
		tighten(s.gov.free() + e.usd)
	}
	if e.usd > 0 {
		tighten(e.usd * (1 + j.Tolerance) * 1.05)
	}
	return cap
}

// placement is one attempt on an instance. Its outcome is computed when
// it is placed and booked by settle when the simulated clock reaches
// endS.
type placement struct {
	inst  *instance
	job   *jobState
	est   estimate
	start float64
	endS  float64
	att   attempt
	span  *obs.Span // attempt span, open until settle
}

// placeRound places queued, eligible jobs on idle instances at the
// current clock, in queue order (priority, deadline, submission).
func (s *Scheduler) placeRound() error {
	var skipped []*jobState
	for s.queue.Len() > 0 {
		j := s.queue.pop()
		inst, est, ok := s.choose(j)
		if !ok {
			skipped = append(skipped, j)
			continue
		}
		switch s.gov.decide(est.usd) {
		case decideShed:
			s.shed(j, fmt.Sprintf("predicted cost $%.4f exceeds remaining budget $%.4f",
				est.usd, math.Max(0, s.gov.budget-s.gov.spent)))
		case decideDefer:
			if !j.deferred {
				s.log(EvDeferred, j.Name, "",
					fmt.Sprintf("predicted cost $%.4f awaits $%.4f in reservations",
						est.usd, s.gov.committed))
				s.Metrics.Counter(metricDeferralsTotal).Inc()
				j.deferred = true
			}
			skipped = append(skipped, j)
		case decideAdmit:
			if err := s.place(j, inst, est); err != nil {
				return err
			}
		}
	}
	for _, j := range skipped {
		s.queue.push(j)
	}
	return nil
}

// place commits the governor reservation, logs the event, runs the
// attempt and occupies the instance until the attempt's end.
func (s *Scheduler) place(j *jobState, inst *instance, est estimate) error {
	j.attempts++
	j.system = inst.sys.Abbrev
	j.deferred = false
	if j.firstStart < 0 {
		j.firstStart = s.clock
	}
	s.gov.commit(est.usd)
	inst.jobs++
	s.log(EvPlaced, j.Name, inst.id,
		fmt.Sprintf("attempt %d, %d steps, est %.1fs $%.4f", j.attempts, j.remaining(), est.seconds, est.usd))

	p := &placement{inst: inst, job: j, est: est, start: s.clock}
	s.obsPlace(p)
	att, err := s.runAttempt(j, inst, est)
	if err != nil {
		return fmt.Errorf("fleet: job %q on %s: %w", j.Name, inst.id, err)
	}
	p.att, p.endS = att, p.start+att.provisionS+att.computeS
	inst.running = p
	return nil
}

// shed finalizes a job without completing it.
func (s *Scheduler) shed(j *jobState, reason string) {
	j.finished = true
	j.shed = true
	j.reason = reason
	j.finishedAt = s.clock
	s.unfinished--
	s.log(EvShed, j.Name, "", reason)
	s.obsShed(j, reason)
}

// settle books a placement's attempt when the simulated clock reaches
// its end, freeing the instance.
func (s *Scheduler) settle(p *placement) {
	att := p.att
	j := p.job
	s.gov.settle(p.est.usd, att.usd)
	p.inst.running = nil
	p.inst.busyS += att.provisionS + att.computeS
	p.inst.earnedUSD += att.usd
	j.done += att.steps
	j.usd += att.usd
	j.computeS += att.computeS
	j.provisionS += att.provisionS

	switch {
	case att.preempted && j.remaining() > 0:
		s.obsAttemptEnd(p, "preempted")
		s.log(EvPreempted, j.Name, p.inst.id,
			fmt.Sprintf("%s after %d steps ($%.4f billed), %d/%d done",
				att.reason, att.steps, att.usd, j.done, j.Steps))
		s.Metrics.Counter(metricPreemptionsTotal).Inc()
		retriesUsed := j.attempts - 1
		if retriesUsed >= s.cfg.MaxRetries {
			s.shed(j, fmt.Sprintf("retry cap %d exhausted at %d/%d steps",
				s.cfg.MaxRetries, j.done, j.Steps))
			return
		}
		backoff := s.cfg.BackoffBaseS * math.Pow(2, float64(retriesUsed))
		if backoff > s.cfg.BackoffMaxS {
			backoff = s.cfg.BackoffMaxS
		}
		backoff *= 1 + s.cfg.BackoffJitter*s.rng.Float64()
		j.eligibleAt = s.clock + backoff
		s.parked = append(s.parked, j)
		s.log(EvRequeued, j.Name, "",
			fmt.Sprintf("retry %d/%d, backoff %.1fs", retriesUsed+1, s.cfg.MaxRetries, backoff))
		s.obsBackoff(j)
	case att.aborted:
		s.obsAttemptEnd(p, "aborted")
		s.shed(j, att.reason)
	default:
		s.obsAttemptEnd(p, "completed")
		j.finished = true
		j.finishedAt = s.clock
		s.unfinished--
		s.log(EvCompleted, j.Name, p.inst.id,
			fmt.Sprintf("%d steps in %.1fs compute, $%.4f, %.1f MFLUPS",
				j.done, j.computeS, j.usd, j.mflups()))
		s.obsComplete(j)
	}
}

// Run schedules the jobs to completion and returns the report. The
// Scheduler must not be reused afterwards.
func (s *Scheduler) Run(jobs []*Job) (*Report, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fleet: no jobs submitted")
	}
	seen := map[string]bool{}
	for i, j := range jobs {
		if j.Name == "" {
			return nil, fmt.Errorf("fleet: job %d has no name", i)
		}
		if seen[j.Name] {
			return nil, fmt.Errorf("fleet: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.Steps <= 0 {
			return nil, fmt.Errorf("fleet: job %q needs positive steps", j.Name)
		}
		if len(j.Workload.Tasks) == 0 {
			return nil, fmt.Errorf("fleet: job %q has an empty workload", j.Name)
		}
	}

	// The fleet span parents every job span and closes at the final
	// simulated clock, whatever path Run exits by.
	fleetSpan := s.Trace.StartChild(s.Root, "fleet.run", s.clock)
	fleetSpan.SetAttr("jobs", strconv.Itoa(len(jobs)))
	defer func() { fleetSpan.End(s.clock) }()

	// Submission: log every job, shed the ones no pool instance can ever
	// host, queue the rest.
	for i, j := range jobs {
		st := &jobState{Job: j, seq: i, ranks: len(j.Workload.Tasks), firstStart: -1}
		s.states = append(s.states, st)
		s.unfinished++
		dl := "none"
		if j.DeadlineS > 0 {
			dl = fmt.Sprintf("%.0fs", j.DeadlineS)
		}
		s.log(EvSubmitted, j.Name, "",
			fmt.Sprintf("priority %d, %d ranks, %d steps, deadline %s", j.Priority, st.ranks, j.Steps, dl))
		s.obsSubmit(fleetSpan, st)
		ok := false
		for _, inst := range s.insts {
			if st.compatible(inst) {
				ok = true
				break
			}
		}
		if !ok {
			s.shed(st, fmt.Sprintf("no pool instance fits %d ranks under the job's constraints", st.ranks))
			continue
		}
		s.queue.push(st)
		s.obsWaitStart(st)
	}

	for s.unfinished > 0 {
		// Promote parked jobs whose backoff has elapsed.
		var stillParked []*jobState
		for _, j := range s.parked {
			if j.eligibleAt <= s.clock {
				s.queue.push(j)
				s.obsWaitStart(j)
			} else {
				stillParked = append(stillParked, j)
			}
		}
		s.parked = stillParked

		if err := s.placeRound(); err != nil {
			return nil, err
		}

		// Advance to the next simulated event: the earliest attempt end
		// or parked-job eligibility.
		next := math.Inf(1)
		for _, inst := range s.insts {
			if p := inst.running; p != nil && p.endS < next {
				next = p.endS
			}
		}
		for _, j := range s.parked {
			if j.eligibleAt < next {
				next = j.eligibleAt
			}
		}
		if math.IsInf(next, 1) {
			if s.queue.Len() == 0 {
				break
			}
			// Nothing is running, nothing is parked, yet jobs remain
			// queued: no idle instance can take them and no reservation
			// will ever settle. Shed what is left.
			for s.queue.Len() > 0 {
				s.shed(s.queue.pop(), "unplaceable: no compatible instance available")
			}
			break
		}
		if next > s.clock {
			s.clock = next
		}

		// Settle every attempt ended by now, in pool order (equal
		// timestamps resolve deterministically).
		for _, inst := range s.insts {
			if p := inst.running; p != nil && p.endS <= s.clock {
				s.settle(p)
			}
		}
	}
	return s.report(), nil
}
