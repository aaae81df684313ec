package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/simcloud"
)

// This file implements the paper's model-growth feedback loop: "additional
// elements of runtime can be added then checked for their impact on the
// model's ability to predict experimental results. Following the results
// of this check the element can be added or discarded." Candidate terms
// are evaluated by greedy forward selection against stored measurements;
// a term survives only if it actually improves prediction accuracy.

// Term is one candidate runtime component. Eval returns the extra seconds
// per timestep the term would add on top of a base prediction for the
// given workload.
type Term struct {
	Name string
	Eval func(w simcloud.Workload, base Prediction) float64
}

// FlopTerm prices the floating-point work of every fluid point against a
// compute ceiling — the roofline term the Discussion proposes. For
// bandwidth-bound LBM on CPUs the selector should reject it.
func FlopTerm(k Kernel, m Machine) Term {
	return Term{
		Name: "flops",
		Eval: func(w simcloud.Workload, base Prediction) float64 {
			// The gating task holds roughly points/ranks of the domain
			// (imbalance already folded into the base memory term).
			points := float64(w.Points) / math.Max(1, float64(len(w.Tasks)))
			return FlopTimeS(k, m, points)
		},
	}
}

// OverheadTerm scales the base memory time by a fixed fraction — the
// instruction-issue/synchronization overhead a pure bytes-over-bandwidth
// model misses. This is the term whose absence makes the paper's (and
// this reproduction's) raw models overpredict consistently.
func OverheadTerm(frac float64) Term {
	return Term{
		Name: fmt.Sprintf("kernel-overhead(%.0f%%)", frac*100),
		Eval: func(w simcloud.Workload, base Prediction) float64 {
			return frac * base.MemS
		},
	}
}

// ConstantTerm adds a fixed per-step cost (a barrier or bookkeeping
// estimate) independent of the workload.
func ConstantTerm(name string, seconds float64) Term {
	return Term{
		Name: name,
		Eval: func(simcloud.Workload, Prediction) float64 { return seconds },
	}
}

// Observation pairs a workload with its measured throughput.
type Observation struct {
	Workload       simcloud.Workload
	MeasuredMFLUPS float64
}

// SelectionResult reports the outcome of the feedback loop.
type SelectionResult struct {
	Kept      []string
	Rejected  []string
	BaseMAPE  float64
	FinalMAPE float64
}

// SelectTerms runs greedy forward selection: starting from the bare
// direct model, repeatedly adds the candidate term that most reduces the
// mean absolute percentage error against the observations, stopping when
// no candidate improves MAPE by at least minImprove (absolute, e.g. 0.01
// = one percentage point). Terms never chosen are reported rejected.
func (c *Characterization) SelectTerms(candidates []Term, obs []Observation, minImprove float64) (SelectionResult, error) {
	if len(obs) == 0 {
		return SelectionResult{}, fmt.Errorf("perfmodel: no observations to select against")
	}
	if minImprove < 0 {
		return SelectionResult{}, fmt.Errorf("perfmodel: negative improvement threshold %g", minImprove)
	}
	// Precompute base predictions once per observation.
	bases := make([]Prediction, len(obs))
	for i, o := range obs {
		p, err := c.Predict(Request{Model: ModelDirect, Workload: &obs[i].Workload})
		if err != nil {
			return SelectionResult{}, err
		}
		if o.MeasuredMFLUPS <= 0 {
			return SelectionResult{}, fmt.Errorf("perfmodel: observation %d has non-positive measurement", i)
		}
		bases[i] = p
	}
	mapeWith := func(active []Term) float64 {
		var sum float64
		for i, o := range obs {
			t := bases[i].SecondsPerStep
			for _, term := range active {
				t += term.Eval(o.Workload, bases[i])
			}
			pred := float64(o.Workload.Points) / t / 1e6
			sum += math.Abs(pred-o.MeasuredMFLUPS) / o.MeasuredMFLUPS
		}
		return sum / float64(len(obs))
	}

	res := SelectionResult{BaseMAPE: mapeWith(nil)}
	remaining := append([]Term(nil), candidates...)
	var active []Term
	current := res.BaseMAPE
	for len(remaining) > 0 {
		bestIdx, bestMAPE := -1, current
		for i, cand := range remaining {
			m := mapeWith(append(active, cand))
			if m < bestMAPE-minImprove {
				bestIdx, bestMAPE = i, m
			}
		}
		if bestIdx < 0 {
			break
		}
		active = append(active, remaining[bestIdx])
		res.Kept = append(res.Kept, remaining[bestIdx].Name)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		current = bestMAPE
	}
	for _, cand := range remaining {
		res.Rejected = append(res.Rejected, cand.Name)
	}
	res.FinalMAPE = current
	return res, nil
}
