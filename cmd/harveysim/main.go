// Command harveysim runs the HARVEY-like sparse LBM engine on one of the
// Figure 2 geometries, either directly on the host (on one goroutine rank,
// or in parallel across several with real halo exchange) or as a
// simulated job on a modeled cloud system.
//
// Examples:
//
//	harveysim -geometry aorta -steps 200                 # serial host run
//	harveysim -geometry cylinder -ranks 8 -steps 200     # parallel host run
//	harveysim -geometry cerebral -system CSP-2 -ranks 72 # simulated system
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/decomp"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/simcloud"
)

func main() {
	_, names := campaign.BuildGeometry("", 0) // the error lists the vocabulary
	var (
		geom   = flag.String("geometry", "cylinder", "geometry to build; "+names.Error())
		scale  = flag.Float64("scale", 8, "geometry scale (vessel radius in lattice sites)")
		steps  = flag.Int("steps", 100, "timesteps to run")
		ranks  = flag.Int("ranks", 1, "parallel tasks")
		system = flag.String("system", "", "simulate on a modeled system (e.g. CSP-2) instead of running on the host")
		tau    = flag.Float64("tau", 0.9, "BGK relaxation time")
		umax   = flag.Float64("umax", 0.02, "peak inlet velocity (lattice units)")
		seed   = flag.Int64("seed", 1, "noise seed for simulated runs")
		period = flag.Float64("pulse-period", 0, "pulsatile inflow period in timesteps (0 = steady)")
		amp    = flag.Float64("pulse-amplitude", 0.5, "pulsatile modulation amplitude")
		coll   = flag.String("collision", "bgk", "collision operator: bgk or trt")
	)
	flag.Parse()
	if *steps < 0 {
		fatal(fmt.Errorf("-steps %d: want 0 or more", *steps))
	}
	if *ranks < 1 {
		fatal(fmt.Errorf("-ranks %d: want 1 or more", *ranks))
	}

	dom, err := campaign.BuildGeometry(*geom, *scale)
	fatal(err)
	// A negative period fails the lattice's Params.Validate.
	params := lbm.Params{Tau: *tau, UMax: *umax, Pulsatile: lbm.Waveform{Period: *period, Amplitude: *amp}}
	switch *coll {
	case "bgk":
		params.Collision = lbm.BGK
	case "trt":
		params.Collision = lbm.TRT
	default:
		fatal(fmt.Errorf("unknown collision operator %q", *coll))
	}
	stats := dom.Stats()
	fmt.Printf("geometry %s: %d fluid points (bulk %d, wall %d, inlet %d, outlet %d)\n",
		dom.Name, stats.Fluid, stats.Bulk, stats.Wall, stats.Inlet, stats.Outlet)

	// Build first, then time the steps alone: the printed MFLUPS is the
	// kernel's, and set-up has its own line. A simulated run never steps:
	// the lattice and its decomposition alone, no distributions.
	start := time.Now()
	l, err := lbm.NewLattice(dom, params)
	fatal(err)
	p, err := decomp.RCB(l, *ranks, lbm.HarveyAccess())
	fatal(err)
	if *system != "" {
		sys, err := machine.ByAbbrev(*system)
		fatal(err)
		w := simcloud.FromPartition(dom.Name, l.N(), p)
		res, err := simcloud.Run(w, sys, *steps, rand.New(rand.NewSource(*seed)))
		fatal(err)
		fmt.Printf("simulated on %s: %d ranks, %d nodes, %.4g s, %.2f MFLUPS, $%.4f\n",
			res.System, res.Ranks, res.NodesUsed, res.Seconds, res.MFLUPS, res.CostUSD)
		mt := res.MaxTiming()
		fmt.Printf("slowest task: mem %.3g s, intra %.3g s, inter %.3g s per step\n",
			mt.MemS, mt.IntraS, mt.InterS)
		return
	}

	runner, err := par.New(l, p)
	fatal(err)
	fmt.Printf("set-up: %.3f s\n", time.Since(start).Seconds())
	start = time.Now()
	runner.Run(*steps)
	elapsed := time.Since(start).Seconds()
	fmt.Printf("host run: %d steps on %d rank(s) in %.3f s = %.2f MFLUPS (max speed %.4g)\n",
		*steps, *ranks, elapsed, lbm.MFLUPS(l.N(), *steps, elapsed), runner.MaxSpeed())
	fmt.Printf("total mass: %.17g\n", runner.TotalMass())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "harveysim:", err)
		os.Exit(1)
	}
}
