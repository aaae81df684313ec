// Command csdash builds the CSP Option Dashboard: it characterizes every
// catalog system, tunes the performance model to the chosen anatomy, and
// prints per-instance assessments, the Eq. 17 relative-value heatmap, and
// a recommendation under the chosen objective.
//
// Examples:
//
//	csdash -geometry aorta -ranks 128 -steps 10000
//	csdash -geometry cerebral -ranks 64 -objective min-cost -deadline 120
//	csdash -geometry aorta -ranks 128 -tier tier0
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

func main() {
	_, names := campaign.BuildGeometry("", 0) // the error lists the vocabulary
	var (
		geom      = flag.String("geometry", "aorta", "geometry to build; "+names.Error())
		scale     = flag.Float64("scale", 8, "geometry scale")
		ranks     = flag.Int("ranks", 128, "core count to assess")
		steps     = flag.Int("steps", 10000, "job length in timesteps")
		objective = flag.String("objective", "max-value", "max-throughput, min-cost, min-time or max-value")
		deadline  = flag.Float64("deadline", 0, "time-to-solution limit in seconds (0 = none)")
		seed      = flag.Int64("seed", 1, "characterization noise seed")
		gpu       = flag.Bool("gpu", false, "include the GPU instance type")
		diameter  = flag.Float64("diameter-mm", 0, "physical vessel diameter; with -speed-ms, prints the units conversion")
		speed     = flag.Float64("speed-ms", 0, "physical peak flow speed, m/s")
		heartRate = flag.Float64("heart-rate", 0, "cardiac frequency in Hz (0 = steady)")
		tier      = flag.String("tier", "", "accuracy tier: auto, tier0, tier1 or tier2 (empty = tier1)")
	)
	flag.Parse()

	switch *tier {
	case "", perfmodel.TierAuto, perfmodel.Tier0Physics, perfmodel.Tier1Calibrated, perfmodel.Tier2Measured:
	default:
		fmt.Fprintf(os.Stderr, "csdash: unknown tier %q (valid: %v)\n", *tier, perfmodel.ValidTiers())
		os.Exit(2)
	}

	if *diameter > 0 && *speed > 0 {
		conv, err := units.Convert(units.Physical{
			DiameterM:    *diameter * 1e-3,
			PeakSpeedMps: *speed,
			HeartRateHz:  *heartRate,
		}, units.Lattice{SitesAcross: int(2 * *scale), Tau: 0.9})
		fatal(err)
		fmt.Printf("physical problem: %s\n", conv)
		for _, w := range conv.Check() {
			fmt.Println("  warning:", w)
		}
		fmt.Println()
	}

	var obj dashboard.Objective
	switch *objective {
	case "max-throughput":
		obj = dashboard.MaxThroughput
	case "min-cost":
		obj = dashboard.MinCost
	case "min-time":
		obj = dashboard.MinTime
	case "max-value":
		obj = dashboard.MaxValue
	default:
		fmt.Fprintf(os.Stderr, "csdash: unknown objective %q\n", *objective)
		os.Exit(2)
	}

	dom, err := campaign.BuildGeometry(*geom, *scale)
	fatal(err)

	systems := machine.Catalog()
	if *gpu {
		systems = machine.FullCatalog()
	}
	fmt.Println("phase 1: characterizing catalog systems (STREAM + PingPong + fits)...")
	fw, err := core.NewFramework(systems, 5, *seed)
	fatal(err)
	fmt.Printf("phase 2: tuning the model to %s (%d sites)...\n", dom.Name, dom.Stats().Fluid)
	anatomy, err := fw.PrepareAnatomy(dom.Name, dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	fatal(err)

	// Tier 2 and auto need the measured efficiency table; tier1/tier0 (and
	// the legacy default) run without them.
	if *tier == perfmodel.Tier2Measured || *tier == perfmodel.TierAuto {
		tbl, err := perfmodel.DefaultTable()
		fatal(err)
		fatal(fw.AttachTable(tbl))
	}

	as, err := fw.Assess(anatomy, *ranks, *steps, *tier)
	fatal(err)
	fmt.Printf("\nCSP Option Dashboard — %s, %d cores, %d steps\n\n", dom.Name, *ranks, *steps)
	fmt.Println(dashboard.RenderAssessments(as))
	fmt.Printf("relative value r_B,A (Eq. 17; B from left, A from top):\n%s\n",
		dashboard.RenderHeatmap(as, dashboard.RelativeValue(as)))

	front := dashboard.Pareto(as)
	fmt.Println("time/cost Pareto frontier (fastest first):")
	for _, a := range front {
		fmt.Printf("  %-14s %10.2f s  $%.4f\n", a.System, a.Seconds, a.USD)
	}
	fmt.Println()

	best, err := dashboard.Recommend(as, obj, *deadline)
	fatal(err)
	fmt.Printf("recommendation (%s", obj)
	if *deadline > 0 {
		fmt.Printf(", deadline %.0fs", *deadline)
	}
	fmt.Printf("): %s — %.2f MFLUPS, %.1f s, $%.4f", best.System, best.MFLUPS, best.Seconds, best.USD)
	if best.Tier != "" {
		fmt.Printf("  [%s", best.Tier)
		if best.Confidence.HiMFLUPS > best.Confidence.LoMFLUPS {
			fmt.Printf(", %.1f–%.1f MFLUPS", best.Confidence.LoMFLUPS, best.Confidence.HiMFLUPS)
		}
		if best.Extrapolated {
			fmt.Print(", extrapolated")
		}
		fmt.Print("]")
	}
	fmt.Println()
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "csdash:", err)
		os.Exit(1)
	}
}
