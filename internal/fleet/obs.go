package fleet

import (
	"strconv"

	"repro/internal/obs"
)

// This file wires the observability layer into the scheduler. Every
// hook is a no-op when Trace/Metrics are left nil (obs instruments are
// nil-safe), and the scheduler runs on one goroutine, so the span start
// sequence — and with it the deterministic span IDs — replays exactly
// under one seed.
//
// Span topology: a "fleet.run" span (child of the caller's Root, e.g. a
// campaign span) parents one "job" span per submission on its own
// "job:<name>" track; queue waits and backoffs are children on the job
// track, while each placement's "attempt" span moves to the instance's
// track with "provision"/"compute" child phases booked at settle time.

// fleetTimeBucketsS covers queue waits and attempt compute times:
// 1s to ~3 simulated days in powers of four.
var fleetTimeBucketsS = obs.ExpBuckets(1, 4, 10)

// Metric names published by the scheduler.
const (
	metricQueueWaitS       = "fleet_queue_wait_s"
	metricAttemptComputeS  = "fleet_attempt_compute_s"
	metricPlacementsTotal  = "fleet_placements_total"
	metricPreemptionsTotal = "fleet_preemptions_total"
	metricRetriesTotal     = "fleet_retries_total"
	metricCompletionsTotal = "fleet_completions_total"
	metricShedsTotal       = "fleet_sheds_total"
	metricDeferralsTotal   = "fleet_deferrals_total"
)

// obsSubmit opens the job's lifecycle span on its own track.
func (s *Scheduler) obsSubmit(parent *obs.Span, j *jobState) {
	j.span = s.Trace.StartChild(parent, "job", s.clock)
	j.span.SetTrack("job:" + j.Name)
	j.span.SetAttr("name", j.Name)
	j.span.SetAttr("priority", strconv.Itoa(j.Priority))
	j.span.SetAttr("ranks", strconv.Itoa(j.ranks))
	j.span.SetAttr("steps", strconv.Itoa(j.Steps))
}

// obsWaitStart opens a queue-wait phase: at submission, and again each
// time a parked job is promoted back into the queue.
func (s *Scheduler) obsWaitStart(j *jobState) {
	j.waitStart = s.clock
	j.waitSpan = s.Trace.StartChild(j.span, "queue-wait", s.clock)
}

// obsPlace closes the queue-wait phase and opens the attempt span on the
// instance's track.
func (s *Scheduler) obsPlace(p *placement) {
	j, inst := p.job, p.inst
	if j.waitSpan != nil {
		j.waitSpan.SetAttr("instance", inst.id)
		j.waitSpan.End(s.clock)
		j.waitSpan = nil
	}
	s.Metrics.Histogram(metricQueueWaitS, fleetTimeBucketsS).Observe(s.clock - j.waitStart)
	s.Metrics.Counter(metricPlacementsTotal).Inc()

	p.span = s.Trace.StartChild(j.span, "attempt", s.clock)
	p.span.SetTrack(inst.id)
	p.span.SetAttr("job", j.Name)
	p.span.SetAttr("instance", inst.id)
	p.span.SetAttr("system", inst.sys.Abbrev)
	p.span.SetAttr("attempt", strconv.Itoa(j.attempts))
	p.span.SetAttr("steps_remaining", strconv.Itoa(j.remaining()))
}

// obsAttemptEnd books the attempt's provision/compute phases as child
// spans and closes the attempt span with its outcome.
func (s *Scheduler) obsAttemptEnd(p *placement, outcome string) {
	att := p.att
	if p.span != nil {
		if att.provisionS > 0 {
			prov := s.Trace.StartChild(p.span, "provision", p.start)
			prov.End(p.start + att.provisionS)
		}
		if att.computeS > 0 {
			comp := s.Trace.StartChild(p.span, "compute", p.start+att.provisionS)
			comp.End(p.start + att.provisionS + att.computeS)
		}
		p.span.SetAttr("outcome", outcome)
		p.span.SetAttr("steps", strconv.Itoa(att.steps))
		p.span.SetAttrF("usd", att.usd)
		p.span.End(s.clock)
	}
	s.Metrics.Histogram(metricAttemptComputeS, fleetTimeBucketsS).Observe(att.computeS)
}

// obsBackoff counts a requeued preemption's retry and records its gap as
// an immediately closed span from now until the job's next eligibility.
func (s *Scheduler) obsBackoff(j *jobState) {
	s.Metrics.Counter(metricRetriesTotal).Inc()
	b := s.Trace.StartChild(j.span, "backoff", s.clock)
	b.SetAttr("attempt", strconv.Itoa(j.attempts))
	b.End(j.eligibleAt)
}

// obsShed closes the job span as shed. An open queue-wait phase (a job
// shed while waiting) closes with it.
func (s *Scheduler) obsShed(j *jobState, reason string) {
	s.Metrics.Counter(metricShedsTotal).Inc()
	if j.waitSpan != nil {
		j.waitSpan.End(s.clock)
		j.waitSpan = nil
	}
	j.span.SetAttr("outcome", "shed")
	j.span.SetAttr("reason", reason)
	j.span.End(s.clock)
}

// obsComplete closes the job span as completed.
func (s *Scheduler) obsComplete(j *jobState) {
	s.Metrics.Counter(metricCompletionsTotal).Inc()
	j.span.SetAttr("outcome", "completed")
	j.span.SetAttrF("mflups", j.mflups())
	j.span.SetAttrF("usd", j.usd)
	j.span.End(s.clock)
}
