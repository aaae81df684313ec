package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/simcloud"
	"repro/internal/units"
)

// assignment is the immutable payload the event loop hands a worker: one
// attempt at the job's remaining steps on the worker's instance. The
// worker reads the job's declaration only (never its bookkeeping), so the
// race detector sees a clean hand-off through the channel.
type assignment struct {
	job        *Job
	startSteps int     // checkpointed steps already done
	perStepS   float64 // model-predicted seconds per step on this system; 0 = unguarded
	tolerance  float64
	costCapUSD float64 // hard stop for this attempt's metered cost; 0 = uncapped
	hazard     float64 // spot preemptions per node-hour (0 on on-demand capacity)
	reply      chan attempt
}

// attempt reports one execution attempt back to the event loop.
type attempt struct {
	steps      int // steps completed this attempt
	computeS   float64
	provisionS float64
	usd        float64
	preempted  bool
	aborted    bool
	reason     string
	err        error
}

// attemptChunks is how many metered slices an attempt is split into; the
// guards and the spot hazard can only trip at slice boundaries, like a
// scheduler polling its jobs.
const attemptChunks = 20

// worker is the long-lived goroutine of one simulated instance. It owns
// its RNG outright: the sequence of assignments an instance receives is
// fixed by the deterministic event loop, so the draws — provisioning
// jitter, run noise, preemption hazard — replay exactly under one seed.
func worker(inst *instance, rng *rand.Rand) {
	for a := range inst.cmd {
		a.reply <- runAttempt(a, inst, rng)
	}
}

// runAttempt executes the job's remaining steps on the instance in
// metered slices, with the model-driven time guard, the cost cap, and —
// on spot capacity — the reclaim hazard active at every slice boundary.
func runAttempt(a assignment, inst *instance, rng *rand.Rand) attempt {
	sys := inst.sys
	remaining := a.job.Steps - a.startSteps
	if remaining <= 0 {
		return attempt{err: fmt.Errorf("fleet: job %q has no steps left", a.job.Name)}
	}
	ranks := len(a.job.Workload.Tasks)
	if ranks == 0 || ranks > sys.MaxRanks() {
		return attempt{err: fmt.Errorf("fleet: job %q (%d ranks) cannot run on %s",
			a.job.Name, ranks, sys.Abbrev)}
	}

	res := attempt{provisionS: sys.ProvisionDelayS * (0.8 + 0.4*rng.Float64())}

	timeLimit := 0.0
	if a.perStepS > 0 {
		timeLimit = a.perStepS * float64(remaining) * (1 + a.tolerance)
	}
	rate := 1.0
	if inst.spot {
		rate = cloud.SpotDiscount
	}

	chunk := (remaining + attemptChunks - 1) / attemptChunks
	for res.steps < remaining {
		n := chunk
		if res.steps+n > remaining {
			n = remaining - res.steps
		}
		r, err := simcloud.Run(a.job.Workload, sys, n, rng)
		if err != nil {
			return attempt{err: err}
		}
		res.steps += n
		res.computeS += r.Seconds
		res.usd = sys.JobCost(ranks, res.computeS) * rate
		if a.hazard > 0 && inst.spot {
			nodeHours := float64(sys.Nodes(ranks)) * units.SecondsToHours(r.Seconds)
			if rng.Float64() < 1-math.Exp(-a.hazard*nodeHours) {
				res.preempted = true
				res.reason = "spot capacity reclaimed"
				break
			}
		}
		if res.steps >= remaining {
			break // finished: guards only interrupt remaining work
		}
		if timeLimit > 0 && res.computeS > timeLimit {
			res.aborted = true
			res.reason = fmt.Sprintf("time guard: %.3gs exceeds predicted %.3gs +%.0f%%",
				res.computeS, a.perStepS*float64(remaining), a.tolerance*100)
			break
		}
		if a.costCapUSD > 0 && res.usd >= a.costCapUSD {
			res.aborted = true
			res.reason = fmt.Sprintf("cost guard: $%.4f reached cap $%.4f", res.usd, a.costCapUSD)
			break
		}
	}
	return res
}
