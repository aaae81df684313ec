package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/monitor"
)

// JobReport is one job's final accounting.
type JobReport struct {
	Name     string
	System   string // system of the last placement, "-" if never placed
	Priority int
	Ranks    int

	Steps     int
	StepsDone int
	Attempts  int

	StartS float64 // first placement, -1 if never placed
	DoneS  float64 // completion or shed time
	WaitS  float64 // queue wait before first placement; every job submits at 0

	ComputeS   float64
	ProvisionS float64
	USD        float64
	MFLUPS     float64

	DeadlineS   float64
	DeadlineMet bool // vacuously true without a deadline; false when shed

	Completed  bool
	ShedReason string // empty when completed

	PredMFLUPS float64 // model prediction on the final system, 0 if unknown
	PredTier   string  // tier that produced PredMFLUPS, "" for Tier 1
}

// InstanceReport is one pool instance's utilization accounting.
type InstanceReport struct {
	ID     string
	System string
	Spot   bool
	Jobs   int // attempts hosted
	BusyS  float64
	USD    float64 // revenue metered on this instance
	// Utilization is busy time over the fleet makespan.
	Utilization float64
}

// Report is the outcome of one fleet run.
type Report struct {
	Events    []Event
	Jobs      []JobReport // submission order
	Instances []InstanceReport
	BudgetUSD float64
	SpentUSD  float64
	MakespanS float64
	Completed int
	Shed      int
}

// report assembles the final Report from the scheduler's state.
func (s *Scheduler) report() *Report {
	r := &Report{
		Events:    s.events,
		BudgetUSD: s.cfg.BudgetUSD,
		SpentUSD:  s.gov.spent,
		MakespanS: s.clock,
	}
	for _, j := range s.states {
		jr := JobReport{
			Name:       j.Name,
			System:     "-",
			Priority:   j.Priority,
			Ranks:      j.ranks,
			Steps:      j.Steps,
			StepsDone:  j.done,
			Attempts:   j.attempts,
			StartS:     j.firstStart,
			DoneS:      j.finishedAt,
			ComputeS:   j.computeS,
			ProvisionS: j.provisionS,
			USD:        j.usd,
			MFLUPS:     j.mflups(),
			DeadlineS:  j.DeadlineS,
			Completed:  j.completed(),
		}
		if j.system != "" {
			jr.System = j.system
			jr.PredMFLUPS = j.PredMFLUPS[j.system]
			jr.PredTier = j.PredTier[j.system]
		}
		if j.firstStart >= 0 {
			jr.WaitS = j.firstStart
		}
		jr.DeadlineMet = jr.Completed && (j.DeadlineS <= 0 || j.finishedAt <= j.DeadlineS)
		if j.shed {
			jr.ShedReason = j.reason
			r.Shed++
		} else {
			r.Completed++
		}
		r.Jobs = append(r.Jobs, jr)
	}
	for _, inst := range s.insts {
		ir := InstanceReport{
			ID:     inst.id,
			System: inst.sys.Abbrev,
			Spot:   inst.spot,
			Jobs:   inst.jobs,
			BusyS:  inst.busyS,
			USD:    inst.earnedUSD,
		}
		if s.clock > 0 {
			ir.Utilization = inst.busyS / s.clock
		}
		r.Instances = append(r.Instances, ir)
	}
	return r
}

// RenderEvents formats the structured event log.
func (r *Report) RenderEvents() string { return RenderEvents(r.Events) }

// RenderJobs formats the cost/deadline report, one row per job in
// submission order.
func (r *Report) RenderJobs() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %3s %-14s %9s %8s %10s %12s %10s %9s %-9s %s\n",
		"job", "pri", "system", "steps", "attempts", "wait_s", "done_t", "USD", "MFLUPS", "deadline", "status")
	for _, j := range r.Jobs {
		dl := "-"
		if j.DeadlineS > 0 {
			if j.DeadlineMet {
				dl = "met"
			} else {
				dl = "MISSED"
			}
		}
		status := "completed"
		if !j.Completed {
			status = "shed: " + j.ShedReason
		}
		fmt.Fprintf(&b, "%-22s %3d %-14s %4d/%4d %8d %10.1f %12.1f %10.4f %9.1f %-9s %s\n",
			j.Name, j.Priority, j.System, j.StepsDone, j.Steps, j.Attempts,
			j.WaitS, j.DoneS, j.USD, j.MFLUPS, dl, status)
	}
	fmt.Fprintf(&b, "completed %d/%d jobs, spend $%.4f of budget $%.4f, makespan %.1fs\n",
		r.Completed, len(r.Jobs), r.SpentUSD, r.BudgetUSD, r.MakespanS)
	return b.String()
}

// RenderUtilization formats per-instance occupancy over the makespan.
func (r *Report) RenderUtilization() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-14s %-5s %6s %12s %8s %12s\n",
		"instance", "system", "spot", "jobs", "busy_s", "util", "earned_USD")
	for _, i := range r.Instances {
		spot := "-"
		if i.Spot {
			spot = "spot"
		}
		fmt.Fprintf(&b, "%-18s %-14s %-5s %6d %12.1f %7.1f%% %12.4f\n",
			i.ID, i.System, spot, i.Jobs, i.BusyS, i.Utilization*100, i.USD)
	}
	return b.String()
}

// ExportMonitor appends a telemetry sample per completed job — carrying
// the model prediction and its tier when one drove the placement — into
// a monitor store, feeding the regression tracking and refinement loop
// the paper's Discussion sketches. The fleet clock starts at zero every
// run while the store keeps one timeline, so startS, the store owner's
// clock when the run began, is added to each completion time. Samples
// arrive in completion order, ties broken on the configuration key.
func (r *Report) ExportMonitor(st *monitor.Store, startS float64) error {
	var done []monitor.Sample
	for _, j := range r.Jobs {
		if !j.Completed || j.MFLUPS <= 0 {
			continue
		}
		model := ""
		if j.PredMFLUPS > 0 {
			model = "direct"
		}
		done = append(done, monitor.Sample{
			TimeS:     startS + j.DoneS,
			Workload:  j.Name,
			System:    j.System,
			Model:     model,
			Tier:      j.PredTier,
			Ranks:     j.Ranks,
			MFLUPS:    j.MFLUPS,
			Predicted: j.PredMFLUPS,
			CostUSD:   j.USD,
			WaitS:     j.WaitS,
		})
	}
	sort.SliceStable(done, func(i, k int) bool {
		if done[i].TimeS < done[k].TimeS {
			return true
		}
		return done[i].TimeS <= done[k].TimeS && done[i].Key() < done[k].Key()
	})
	for _, s := range done {
		if err := st.Add(s); err != nil {
			return fmt.Errorf("fleet: exporting telemetry for %q: %w", s.Workload, err)
		}
	}
	return nil
}
