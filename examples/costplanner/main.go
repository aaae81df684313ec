// Costplanner: plan a multi-job simulation campaign under a hard dollar
// budget. The performance model prices every (instance, core-count)
// option; the planner picks the cheapest option meeting a turnaround
// deadline for each patient case, and the campaign runner enforces the
// model-driven guard so a mispredicted job cannot blow the budget — the
// paper's "protection against inadvertent cost overruns".
//
// Run with: go run ./examples/costplanner
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
)

func main() {
	fw, err := core.NewFramework(machine.Catalog(), 5, 99)
	if err != nil {
		log.Fatal(err)
	}

	// Three patient cases of increasing difficulty.
	cases := []struct {
		name  string
		build func() (*geometry.Domain, error)
		steps int
	}{
		{"patient-A-cylinder", func() (*geometry.Domain, error) { return geometry.Cylinder(64, 10) }, 4000},
		{"patient-B-aorta", func() (*geometry.Domain, error) { return geometry.Aorta(7) }, 6000},
		{"patient-C-cerebral", func() (*geometry.Domain, error) { return geometry.Cerebral(3, 4) }, 6000},
	}

	const (
		budgetUSD = 0.50 // total campaign budget
		deadline  = 30.0 // per-job turnaround requirement, seconds
		ranks     = 64
	)
	campaign := cloud.Campaign{Provider: fw.Provider, BudgetUSD: budgetUSD}
	var specs []cloud.JobSpec

	for _, c := range cases {
		dom, err := c.build()
		if err != nil {
			log.Fatal(err)
		}
		anatomy, err := fw.PrepareAnatomy(c.name, dom, lbm.Params{Tau: 0.9, UMax: 0.02})
		if err != nil {
			log.Fatal(err)
		}
		as, err := fw.Assess(anatomy, ranks, c.steps, "")
		if err != nil {
			log.Fatal(err)
		}
		best, err := dashboard.Recommend(as, dashboard.MinCost, deadline)
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		fmt.Printf("%-20s -> %-12s predicted %6.1f MFLUPS, %6.2f s, $%.4f\n",
			c.name, best.System, best.MFLUPS, best.Seconds, best.USD)
		// 25% tolerance: the uncalibrated model is optimistically biased;
		// refinement tightens this to the paper's 10% over a campaign.
		spec, err := fw.PlanJob(anatomy, best.System, ranks, c.steps, 0.25)
		if err != nil {
			log.Fatal(err)
		}
		specs = append(specs, spec)
	}

	if err := campaign.Run(specs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncampaign: %d jobs run, %d skipped, total spend $%.4f of $%.2f budget\n",
		len(campaign.Results), len(campaign.Skipped), fw.Provider.TotalSpend(), budgetUSD)
	for _, r := range campaign.Results {
		status := "completed"
		if r.Aborted {
			status = "ABORTED: " + r.AbortReason
		}
		fmt.Printf("  %-20s %6d steps  %6.1f MFLUPS  $%.4f  %s\n",
			r.Result.Workload, r.StepsDone, r.Result.MFLUPS, r.USD, status)
	}
	if fw.Provider.TotalSpend() > budgetUSD*1.2 {
		log.Fatal("budget overrun — guard failed")
	}
	fmt.Println("OK: campaign stayed within budget")
}
