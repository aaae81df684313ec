// Costplanner: run a multi-job simulation campaign under a hard dollar
// budget. The performance model prices every instance for each patient
// case; the campaign picks the cheapest one meeting a turnaround deadline
// and runs the job under the model-driven guard, so a mispredicted job
// cannot blow the budget — the paper's "protection against inadvertent
// cost overruns".
//
// Run with: go run ./examples/costplanner
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machine"
)

func main() {
	// Three patient cases of increasing difficulty, 64 ranks each, a
	// 30-second turnaround requirement per job and $0.50 in all. The 25%
	// tolerance allows for the uncalibrated model's optimistic bias;
	// refinement tightens it to the paper's 10% over a campaign.
	cfg := campaign.Config{
		Seed: 99, BudgetUSD: 0.50, Objective: "min-cost", Deadline: 30,
		Jobs: []campaign.JobConfig{
			{Name: "patient-A-cylinder", Geometry: "cylinder", Scale: 10, Ranks: 64, Steps: 4000, Tolerance: 0.25},
			{Name: "patient-B-aorta", Geometry: "aorta", Scale: 7, Ranks: 64, Steps: 6000, Tolerance: 0.25},
			{Name: "patient-C-cerebral", Geometry: "cerebral", Scale: 6, Ranks: 64, Steps: 6000, Tolerance: 0.25},
		},
	}
	fw, err := core.NewFramework(machine.Catalog(), 5, cfg.Seed)
	if err != nil {
		log.Fatal(err)
	}
	out, err := campaign.Runner{}.Run(context.Background(), fw, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out.Render())
	if out.Serial.SpentUSD > cfg.BudgetUSD {
		log.Fatal("budget overrun — guard failed")
	}
	fmt.Println("OK: campaign stayed within budget")
}
