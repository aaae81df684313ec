package fleet

import (
	"container/heap"
	"math"

	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

// Job is one unit of work submitted to the fleet: a decomposed workload
// plus its scheduling contract (priority, deadline) and guard rails.
type Job struct {
	Name     string
	Workload simcloud.Workload
	Steps    int

	// Priority orders the queue: higher-priority jobs place first.
	Priority int

	// DeadlineS is the absolute simulated-time deadline in seconds; 0
	// means none. Placement prefers the cheapest instance predicted to
	// meet it, falling back to the earliest predicted finish when no
	// instance can.
	DeadlineS float64

	// Tolerance widens the model-driven guards: an attempt stops once its
	// compute time passes the predicted time × (1 + Tolerance), or its
	// metered cost the predicted cost × (1 + Tolerance) × 1.05.
	Tolerance float64

	// OnDemandOnly excludes spot instances, for jobs whose deadline
	// cannot absorb a preemption/requeue cycle.
	OnDemandOnly bool

	// Systems restricts placement to the listed system abbreviations;
	// empty allows every pool system large enough for the workload.
	Systems []string

	// PerStep carries the performance model's predicted seconds-per-step
	// keyed by system abbreviation: it prices placement and arms the
	// guards. On a system missing from the map the job runs unguarded
	// and unpriced, capped by the campaign budget alone.
	PerStep map[string]float64

	// Pred optionally carries the model's prediction per system for
	// telemetry export: the report keeps the final system's, and
	// ExportMonitor turns it into the sample the refinement loop learns
	// from.
	Pred map[string]perfmodel.Prediction

	// Deprecated: read by nothing; kept while the benchmark sets it.
	PredMFLUPS map[string]float64
}

// jobState wraps a Job with the scheduler's bookkeeping.
type jobState struct {
	*Job
	seq   int // submission order, the final tie-breaker
	ranks int

	done       int // checkpointed steps completed across attempts
	attempts   int
	eligibleAt float64 // requeue backoff gate
	firstStart float64 // simulated time of first placement, -1 before
	finishedAt float64
	computeS   float64
	provisionS float64
	usd        float64

	system   string // system of the last placement
	deferred bool   // a deferred event has been logged since last state change
	finished bool
	shed     bool
	reason   string

	span      *obs.Span // lifecycle span, open from submission to completion/shed
	waitSpan  *obs.Span // current queue-wait phase, nil while placed or parked
	waitStart float64   // simulated start of the current queue wait
}

// completed reports whether the job finished all its steps.
func (j *jobState) completed() bool { return j.finished && !j.shed }

// remaining returns the steps not yet checkpointed.
func (j *jobState) remaining() int { return j.Steps - j.done }

// mflups returns the job's aggregate throughput over its compute time.
func (j *jobState) mflups() float64 {
	if j.computeS <= 0 {
		return 0
	}
	return float64(j.Workload.Points) * float64(j.done) / j.computeS / 1e6
}

// deadlineKey orders deadlines with 0 (none) sorting last.
func deadlineKey(d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	return d
}

// jobQueue is the priority queue of runnable jobs: highest priority
// first, then earliest deadline, then submission order.
type jobQueue []*jobState

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].Priority != q[j].Priority {
		return q[i].Priority > q[j].Priority
	}
	di, dj := deadlineKey(q[i].DeadlineS), deadlineKey(q[j].DeadlineS)
	if di != dj {
		return di < dj
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *jobQueue) Push(x any) { *q = append(*q, x.(*jobState)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

func (q *jobQueue) push(j *jobState) { heap.Push(q, j) }

func (q *jobQueue) pop() *jobState { return heap.Pop(q).(*jobState) }
