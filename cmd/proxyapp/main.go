// Command proxyapp runs the lbm-proxy-app equivalent: the LBM engine on
// a periodic cylinder in the kernel variants the paper's Figures 4 and 8
// sweep — layout (AOS/SOA), propagation pattern (AB/AA) and collision
// loops (rolled/unrolled).
//
// Examples:
//
//	proxyapp -layout soa -pattern aa -unrolled -steps 200
//	proxyapp -all -steps 100     # benchmark every kernel variant
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/fit"
	"repro/internal/lbm"
)

func run(cfg lbm.KernelConfig, nx int, radius float64, force float64, steps, threads int) error {
	p, err := lbm.NewProxy(cfg, nx, radius, lbm.Params{Tau: 0.9, Force: [3]float64{force, 0, 0}})
	if err != nil {
		return err
	}
	p.SetThreads(threads)
	start := time.Now()
	p.Run(steps)
	elapsed := time.Since(start).Seconds()
	fmt.Printf("%-18s %9d points %6d steps %3d thr %8.3f s %10.2f MFLUPS (centerline %.4g)\n",
		cfg, p.FluidPoints(), steps, p.Threads(), elapsed,
		lbm.MFLUPS(p.FluidPoints(), steps, elapsed), p.CenterlineSpeed())
	return nil
}

// runSweep measures the unrolled SOA-AA kernel's throughput over a
// thread sweep — the proxy-app analogue of the paper's STREAM sweep —
// and fits the two-line bandwidth model to the implied traffic.
func runSweep(nx int, radius, force float64, steps int) error {
	maxThreads := runtime.GOMAXPROCS(0)
	cfg := lbm.KernelConfig{Layout: lbm.SOA, Pattern: lbm.AA, Unrolled: true}
	access := lbm.ProxyAccess(cfg)
	var ths, bws []float64
	fmt.Printf("%8s %12s %14s\n", "threads", "MFLUPS", "implied MB/s")
	for t := 1; t <= maxThreads; t++ {
		p, err := lbm.NewProxy(cfg, nx, radius, lbm.Params{Tau: 0.9, Force: [3]float64{force, 0, 0}})
		if err != nil {
			return err
		}
		p.SetThreads(t)
		p.Run(2) // warm-up
		start := time.Now()
		p.Run(steps)
		secs := time.Since(start).Seconds()
		mflups := lbm.MFLUPS(p.FluidPoints(), steps, secs)
		implied := mflups * 1e6 * access.PointBytes(lbm.NQ) / 1e6 // MB/s
		fmt.Printf("%8d %12.2f %14.0f\n", t, mflups, implied)
		ths = append(ths, float64(t))
		bws = append(bws, implied)
	}
	if len(ths) >= 3 {
		f, err := fit.TwoLineLSQ(ths, bws)
		if err != nil {
			return err
		}
		fmt.Printf("two-line fit: a1=%.1f a2=%.1f a3=%.2f (R²=%.3f)\n", f.A1, f.A2, f.A3, f.R2)
	}
	return nil
}

func main() {
	var (
		layout   = flag.String("layout", "aos", "data layout: aos or soa")
		pattern  = flag.String("pattern", "ab", "propagation pattern: ab or aa")
		unrolled = flag.Bool("unrolled", false, "use the unrolled collision (SOA only)")
		all      = flag.Bool("all", false, "run every kernel variant")
		nx       = flag.Int("nx", 96, "cylinder length in lattice sites")
		radius   = flag.Float64("radius", 12, "cylinder radius in lattice sites")
		force    = flag.Float64("force", 1e-5, "driving body force (lattice units)")
		steps    = flag.Int("steps", 100, "timesteps to run")
		threads  = flag.Int("threads", 1, "OpenMP-style worker threads")
		sweep    = flag.Bool("sweep", false, "sweep threads 1..GOMAXPROCS and fit the Eq. 8 two-line model")
	)
	flag.Parse()

	if *sweep {
		if err := runSweep(*nx, *radius, *force, *steps); err != nil {
			fmt.Fprintln(os.Stderr, "proxyapp:", err)
			os.Exit(1)
		}
		return
	}

	if *all {
		for _, cfg := range []lbm.KernelConfig{
			{Layout: lbm.AOS, Pattern: lbm.AB},
			{Layout: lbm.AOS, Pattern: lbm.AA},
			{Layout: lbm.SOA, Pattern: lbm.AB},
			{Layout: lbm.SOA, Pattern: lbm.AA},
			{Layout: lbm.SOA, Pattern: lbm.AB, Unrolled: true},
			{Layout: lbm.SOA, Pattern: lbm.AA, Unrolled: true},
		} {
			if err := run(cfg, *nx, *radius, *force, *steps, *threads); err != nil {
				fmt.Fprintln(os.Stderr, "proxyapp:", err)
				os.Exit(1)
			}
		}
		return
	}

	cfg := lbm.KernelConfig{Unrolled: *unrolled}
	switch *layout {
	case "aos":
		cfg.Layout = lbm.AOS
	case "soa":
		cfg.Layout = lbm.SOA
	default:
		fmt.Fprintf(os.Stderr, "proxyapp: unknown layout %q\n", *layout)
		os.Exit(2)
	}
	switch *pattern {
	case "ab":
		cfg.Pattern = lbm.AB
	case "aa":
		cfg.Pattern = lbm.AA
	default:
		fmt.Fprintf(os.Stderr, "proxyapp: unknown pattern %q\n", *pattern)
		os.Exit(2)
	}
	if err := run(cfg, *nx, *radius, *force, *steps, *threads); err != nil {
		fmt.Fprintln(os.Stderr, "proxyapp:", err)
		os.Exit(1)
	}
}
