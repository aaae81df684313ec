package experiments

import (
	"fmt"

	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/simcloud"
)

// benchSteps is the timestep count per simulated measurement; MFLUPS is
// timestep-invariant (Eq. 7), so a short run suffices.
const benchSteps = 50

// Fig3 regenerates the HARVEY strong-scaling study (Figure 3): MFLUPS over
// MPI ranks for each Figure 2 geometry on every system. Series are keyed
// "<system>/<geometry>".
func Fig3() (Report, error) {
	cyl, aorta, cerebral, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	cache := newWorkloadCache()
	rng := newRNG()
	access := lbm.HarveyAccess()
	series := map[string][]Point{}
	for _, dom := range []*geometry.Domain{cyl, aorta, cerebral} {
		for _, sys := range machine.Catalog() {
			key := fmt.Sprintf("%s/%s", sys.Abbrev, dom.Name)
			for _, ranks := range rankSweep(sys) {
				w, err := cache.workload(dom, ranks, access, "harvey")
				if err != nil {
					return Report{}, err
				}
				res, err := simcloud.Run(w, sys, benchSteps, rng)
				if err != nil {
					return Report{}, err
				}
				series[key] = append(series[key], Point{X: float64(ranks), Y: res.MFLUPS})
			}
		}
	}
	return Report{
		ID:     "fig3",
		Title:  "Figure 3: HARVEY strong scaling per geometry and system",
		Text:   renderSeries(series, "ranks", "MFLUPS"),
		Series: series,
	}, nil
}

// Fig4 regenerates the proxy-app strong scaling (Figure 4): the AA and AB
// propagation patterns in the AOS layout and the unrolled SOA layout on
// every system. Series are keyed "<system>/<kernel>" with kernel labels
// like "SOA-AA-unrolled".
func Fig4() (Report, error) {
	cyl, _, _, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	cache := newWorkloadCache()
	rng := newRNG()
	kernels := []lbm.KernelConfig{
		{Layout: lbm.AOS, Pattern: lbm.AA},
		{Layout: lbm.SOA, Pattern: lbm.AA, Unrolled: true},
		{Layout: lbm.AOS, Pattern: lbm.AB},
		{Layout: lbm.SOA, Pattern: lbm.AB, Unrolled: true},
	}
	series := map[string][]Point{}
	for _, cfg := range kernels {
		access := lbm.ProxyAccess(cfg)
		for _, sys := range machine.Catalog() {
			key := fmt.Sprintf("%s/%v", sys.Abbrev, cfg)
			for _, ranks := range rankSweep(sys) {
				w, err := cache.workload(cyl, ranks, access, cfg.String())
				if err != nil {
					return Report{}, err
				}
				res, err := simcloud.Run(w, sys, benchSteps, rng)
				if err != nil {
					return Report{}, err
				}
				series[key] = append(series[key], Point{X: float64(ranks), Y: res.MFLUPS})
			}
		}
	}
	return Report{
		ID:     "fig4",
		Title:  "Figure 4: lbm-proxy-app strong scaling, AA vs AB, AOS vs unrolled SOA",
		Text:   renderSeries(series, "ranks", "MFLUPS"),
		Series: series,
	}, nil
}
