// Quickstart: the framework end to end in one screen.
//
//  1. Characterize the cloud catalog into a CSP Option Dashboard.
//  2. Tune the performance model to an anatomy (a cylindrical vessel).
//  3. Predict performance per instance and pick one.
//  4. Run the job with a model-driven budget guard.
//  5. See the measurement refine the model.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
)

func main() {
	// 1. Phase one of Figure 1: microbenchmark every instance type.
	fw, err := core.NewFramework(machine.Catalog(), 5, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Phase two: an anatomy and its tuned model.
	dom, err := geometry.Cylinder(96, 12)
	if err != nil {
		log.Fatal(err)
	}
	anatomy, err := fw.PrepareAnatomy("vessel", dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anatomy %q: %d fluid points\n", anatomy.Name, anatomy.Summary.Points)

	// 3. Assess every instance for a 5000-step job on 64 cores and pick
	// the best value per dollar.
	const ranks, steps = 64, 5000
	as, err := fw.Assess(anatomy, ranks, steps, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(dashboard.RenderAssessments(as))
	best, err := dashboard.Recommend(as, dashboard.MaxValue, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chosen instance: %s\n\n", best.System)

	// 4. Run the job under the model-driven guard: a one-job campaign
	// pinned to the chosen instance. The uncalibrated model carries a known
	// optimistic bias (it cannot see kernel overheads), so a first job gets
	// a generous 25% tolerance; after refinement the tolerance can drop to
	// the paper's 10%. The campaign builds the same cylinder by name.
	q := core.Query{System: best.System, Model: perfmodel.ModelDirect, Ranks: ranks}
	pred, err := fw.Predict(anatomy, q)
	if err != nil {
		log.Fatal(err)
	}
	cfg := campaign.Config{
		Seed: 1, BudgetUSD: 1, Objective: "max-value",
		Jobs: []campaign.JobConfig{{
			Name: anatomy.Name, Geometry: "cylinder", Scale: 12, Ranks: ranks, Steps: steps,
			System: best.System, Tolerance: 0.25,
		}},
	}
	out, err := campaign.Runner{}.Run(context.Background(), fw, cfg)
	if err != nil {
		log.Fatal(err)
	}
	job := out.Serial.Outcomes[0]
	fmt.Printf("job: %d/%d steps, %.2f MFLUPS, $%.4f (completed: %v)\n",
		job.StepsDone, steps, job.MFLUPS, job.USD, job.Completed)

	// 5. The campaign closed the loop: its run is in the monitor, which
	// refines the next prediction for this system, model and rank count.
	refined, err := fw.Predict(anatomy, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prediction before refinement: %.2f MFLUPS, after: %.2f (measured %.2f)\n",
		pred.MFLUPS, refined.MFLUPS, job.MFLUPS)
}
