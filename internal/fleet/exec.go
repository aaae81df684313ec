package fleet

import (
	"fmt"
	"math"

	"repro/internal/cloud"
	"repro/internal/simcloud"
	"repro/internal/units"
)

// attempt is the outcome of one execution attempt.
type attempt struct {
	steps      int // steps completed this attempt
	computeS   float64
	provisionS float64
	usd        float64
	preempted  bool
	aborted    bool
	reason     string
}

// attemptChunks is how many metered slices an attempt is split into; the
// guards and the spot hazard can only trip at slice boundaries, like a
// scheduler polling its jobs.
const attemptChunks = 20

// runAttempt executes the job's remaining steps on the instance in
// metered slices, with the model-driven time guard, the cost cap, and —
// on spot capacity — the reclaim hazard active at every slice boundary.
// Every draw comes from the instance's own RNG.
func (s *Scheduler) runAttempt(j *jobState, inst *instance, est estimate) (attempt, error) {
	sys, rng := inst.sys, inst.rng
	remaining := j.remaining()
	costCapUSD := s.attemptCap(j, est)

	res := attempt{provisionS: sys.ProvisionDelayS * (0.8 + 0.4*rng.Float64())}

	timeLimit := 0.0
	if est.perStep > 0 {
		timeLimit = est.perStep * float64(remaining) * (1 + j.Tolerance)
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
		r, err := simcloud.Run(j.Workload, sys, n, rng)
		if err != nil {
			return attempt{}, err
		}
		res.steps += n
		res.computeS += r.Seconds
		res.usd = sys.JobCost(j.ranks, res.computeS) * rate
		if inst.spot {
			nodeHours := float64(sys.Nodes(j.ranks)) * units.SecondsToHours(r.Seconds)
			if rng.Float64() < 1-math.Exp(-s.cfg.PreemptionPerNodeHour*nodeHours) {
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
				res.computeS, est.perStep*float64(remaining), j.Tolerance*100)
			break
		}
		if costCapUSD > 0 && res.usd >= costCapUSD {
			res.aborted = true
			res.reason = fmt.Sprintf("cost guard: $%.4f reached cap $%.4f", res.usd, costCapUSD)
			break
		}
	}
	return res, nil
}
