package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fit"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

// Table4 regenerates the noise-variability study (Table IV): HARVEY on
// the aorta measured every 6 hours for 7 days (28 samples) on CSP-1 and
// CSP-2 Small over the paper's rank counts; mean MFLUPS, standard
// deviation and coefficient of variation per configuration.
func Table4() (Report, error) {
	_, aorta, _, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	cache := newWorkloadCache()
	rng := newRNG()
	access := lbm.HarveyAccess()
	const samples = 28 // 7 days at 6-hour intervals

	type cfg struct {
		sys   *machine.System
		ranks []int
	}
	cfgs := []cfg{
		{machine.NewCSP1(), []int{16, 32, 48}},
		{machine.NewCSP2Small(), []int{16, 32, 64, 128}},
	}
	var b strings.Builder
	series := map[string][]Point{}
	fmt.Fprintf(&b, "%-14s %10s %13s %20s %22s\n",
		"System", "MPI Ranks", "Mean MFLUPS", "Standard Deviation", "Variation Coefficient")
	for _, c := range cfgs {
		for _, ranks := range c.ranks {
			w, err := cache.workload(aorta, ranks, access, "harvey")
			if err != nil {
				return Report{}, err
			}
			var obs []float64
			for i := 0; i < samples; i++ {
				res, err := simcloud.Run(w, c.sys, benchSteps, rng)
				if err != nil {
					return Report{}, err
				}
				obs = append(obs, res.MFLUPS)
			}
			s := fit.Summarize(obs)
			fmt.Fprintf(&b, "%-14s %10d %13.2f %20.2f %22.3f\n",
				c.sys.Abbrev, ranks, s.Mean, s.StdDev, s.CV)
			key := c.sys.Abbrev
			series[key+"/mean"] = append(series[key+"/mean"], Point{X: float64(ranks), Y: s.Mean})
			series[key+"/cv"] = append(series[key+"/cv"], Point{X: float64(ranks), Y: s.CV})
		}
	}
	return Report{
		ID:     "table4",
		Title:  "Table IV: HARVEY aorta performance statistics, 6-hour samples over 7 days",
		Text:   b.String(),
		Series: series,
	}, nil
}

// csp2Characterization characterizes CSP-2 (the model-evaluation system of
// Figures 7-10) with noisy microbenchmarks.
func csp2Characterization() (*perfmodel.Characterization, *machine.System, error) {
	sys := machine.NewCSP2()
	c, err := perfmodel.Characterize(sys, streamSamples, newRNG())
	return c, sys, err
}

// modelSweep produces the "actual" (simulated), direct-model and
// generalized-model MFLUPS series for one workload on CSP-2.
func modelSweep(cache *workloadCache, dom *geometry.Domain, access lbm.AccessModel, tag string,
	c *perfmodel.Characterization, sys *machine.System, series map[string][]Point, label string) error {

	l, err := cache.lattice(dom)
	if err != nil {
		return err
	}
	g, err := perfmodel.CalibrateGeneral(l, access, []int{1, 2, 4, 8, 16, 32, 64, 128}, sys.CoresPerNode)
	if err != nil {
		return err
	}
	ws := perfmodel.WorkloadSummary{Name: label, Points: l.N(), BytesSerial: l.BytesSerial(access)}
	rng := newRNG()
	for _, ranks := range rankSweep(sys) {
		w, err := cache.workload(dom, ranks, access, tag)
		if err != nil {
			return err
		}
		actual, err := simcloud.Run(w, sys, benchSteps, rng)
		if err != nil {
			return err
		}
		direct, err := c.Predict(perfmodel.Request{Model: perfmodel.ModelDirect, Workload: &w})
		if err != nil {
			return err
		}
		general, err := c.Predict(perfmodel.Request{Model: perfmodel.ModelGeneral, Summary: &ws, General: g, Ranks: ranks})
		if err != nil {
			return err
		}
		x := float64(ranks)
		series[label+"/actual"] = append(series[label+"/actual"], Point{X: x, Y: actual.MFLUPS})
		series[label+"/direct"] = append(series[label+"/direct"], Point{X: x, Y: direct.MFLUPS})
		series[label+"/generalized"] = append(series[label+"/generalized"], Point{X: x, Y: general.MFLUPS})
	}
	return nil
}

// Fig7 regenerates the HARVEY model-validation study (Figure 7): direct
// and generalized predictions against actual performance for all three
// geometries on CSP-2 (without EC). Series: "<geometry>/<kind>" with kind
// in {actual, direct, generalized}.
func Fig7() (Report, error) {
	cyl, aorta, cerebral, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	c, sys, err := csp2Characterization()
	if err != nil {
		return Report{}, err
	}
	cache := newWorkloadCache()
	series := map[string][]Point{}
	access := lbm.HarveyAccess()
	for _, dom := range []*geometry.Domain{cyl, aorta, cerebral} {
		if err := modelSweep(cache, dom, access, "harvey", c, sys, series, dom.Name); err != nil {
			return Report{}, err
		}
	}
	return Report{
		ID:     "fig7",
		Title:  "Figure 7: performance-model predictions vs actual, HARVEY on CSP-2",
		Text:   renderSeries(series, "ranks", "MFLUPS"),
		Series: series,
	}, nil
}

// Fig8 regenerates the proxy-app model-validation study (Figure 8): the
// four SOA kernels (AA/AB, rolled/unrolled) on CSP-2. Series keyed
// "<kernel>/<kind>".
func Fig8() (Report, error) {
	cyl, _, _, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	c, sys, err := csp2Characterization()
	if err != nil {
		return Report{}, err
	}
	cache := newWorkloadCache()
	series := map[string][]Point{}
	for _, cfg := range []lbm.KernelConfig{
		{Layout: lbm.SOA, Pattern: lbm.AA},
		{Layout: lbm.SOA, Pattern: lbm.AB},
		{Layout: lbm.SOA, Pattern: lbm.AA, Unrolled: true},
		{Layout: lbm.SOA, Pattern: lbm.AB, Unrolled: true},
	} {
		if err := modelSweep(cache, cyl, lbm.ProxyAccess(cfg), cfg.String(), c, sys, series, cfg.String()); err != nil {
			return Report{}, err
		}
	}
	return Report{
		ID:     "fig8",
		Title:  "Figure 8: performance-model predictions vs actual, proxy-app SOA kernels on CSP-2",
		Text:   renderSeries(series, "ranks", "MFLUPS"),
		Series: series,
	}, nil
}

// Fig9 regenerates the direct-model runtime-composition study (Figure 9):
// the gating task's memory, intra-node and inter-node communication time
// per strong-scaling point for the HARVEY cylinder on CSP-2. Series:
// "mem", "intra", "inter" (seconds per timestep).
func Fig9() (Report, error) {
	cyl, _, _, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	c, sys, err := csp2Characterization()
	if err != nil {
		return Report{}, err
	}
	cache := newWorkloadCache()
	access := lbm.HarveyAccess()
	series := map[string][]Point{}
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %14s %14s %14s\n", "ranks", "mem (s)", "intra (s)", "inter (s)")
	for _, ranks := range rankSweep(sys) {
		w, err := cache.workload(cyl, ranks, access, "harvey")
		if err != nil {
			return Report{}, err
		}
		pred, err := c.Predict(perfmodel.Request{Model: perfmodel.ModelDirect, Workload: &w})
		if err != nil {
			return Report{}, err
		}
		x := float64(ranks)
		series["mem"] = append(series["mem"], Point{X: x, Y: pred.MemS})
		series["intra"] = append(series["intra"], Point{X: x, Y: pred.IntraS})
		series["inter"] = append(series["inter"], Point{X: x, Y: pred.InterS})
		fmt.Fprintf(&b, "%8d %14.6g %14.6g %14.6g\n", ranks, pred.MemS, pred.IntraS, pred.InterS)
	}
	return Report{
		ID:     "fig9",
		Title:  "Figure 9: direct-model runtime composition, HARVEY cylinder on CSP-2",
		Text:   b.String(),
		Series: series,
	}, nil
}

// Fig10 regenerates the generalized-model runtime-composition study
// (Figure 10): memory time and the bandwidth and latency halves of
// Eq. 16 for the HARVEY cylinder on CSP-2. Series: "mem", "comm-bw",
// "comm-latency".
func Fig10() (Report, error) {
	cyl, _, _, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	c, sys, err := csp2Characterization()
	if err != nil {
		return Report{}, err
	}
	cache := newWorkloadCache()
	access := lbm.HarveyAccess()
	l, err := cache.lattice(cyl)
	if err != nil {
		return Report{}, err
	}
	g, err := perfmodel.CalibrateGeneral(l, access, []int{1, 2, 4, 8, 16, 32, 64, 128}, sys.CoresPerNode)
	if err != nil {
		return Report{}, err
	}
	ws := perfmodel.WorkloadSummary{Name: cyl.Name, Points: l.N(), BytesSerial: l.BytesSerial(access)}
	series := map[string][]Point{}
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %14s %14s %14s\n", "ranks", "mem (s)", "comm-bw (s)", "comm-lat (s)")
	for _, ranks := range rankSweep(sys) {
		pred, err := c.Predict(perfmodel.Request{Model: perfmodel.ModelGeneral, Summary: &ws, General: g, Ranks: ranks})
		if err != nil {
			return Report{}, err
		}
		x := float64(ranks)
		series["mem"] = append(series["mem"], Point{X: x, Y: pred.MemS})
		series["comm-bw"] = append(series["comm-bw"], Point{X: x, Y: pred.CommBandwidthS})
		series["comm-latency"] = append(series["comm-latency"], Point{X: x, Y: pred.CommLatencyS})
		fmt.Fprintf(&b, "%8d %14.6g %14.6g %14.6g\n", ranks, pred.MemS, pred.CommBandwidthS, pred.CommLatencyS)
	}
	return Report{
		ID:     "fig10",
		Title:  "Figure 10: generalized-model runtime composition, HARVEY cylinder on CSP-2",
		Text:   b.String(),
		Series: series,
	}, nil
}
