package experiments

import (
	"fmt"
	"strings"

	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

// The extension studies regenerate results for the parts of the paper's
// full model (Eq. 2) and Discussion that its evaluation section defers:
// GPU execution with the t_CPU-GPU term, shared-node tenancy, and the
// add-and-check model-term feedback loop. Each stays because it is the
// only end-to-end check against simcloud of a model input a root accepts:
// the GPU catalog (csdash -gpu), Request.Occupancy (/v1/predict) and
// Request.Terms (read inside perfmodel.Predict).

// ExtGPU compares the GPU instance against the CPU instances node-for-
// node on the HARVEY cylinder and validates the direct model's t_CPU-GPU
// term against simulated truth. Series: "<system>/actual" and
// "<system>/direct" over node counts 1..4.
func ExtGPU() (Report, error) {
	cyl, _, _, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	cache := newWorkloadCache()
	series := map[string][]Point{}
	var text strings.Builder
	fmt.Fprintf(&text, "%8s %-12s %12s %12s %14s\n", "nodes", "system", "actual", "direct", "t_CPU-GPU (s)")
	for _, sys := range []*machine.System{machine.NewCSP2GPU(), machine.NewCSP2(), machine.NewCSP2EC()} {
		c, err := perfmodel.Characterize(sys, streamSamples, newRNG())
		if err != nil {
			return Report{}, err
		}
		rng := newRNG()
		for nodes := 1; nodes <= 4; nodes++ {
			ranks := nodes * sys.CoresPerNode
			w, err := cache.workload(cyl, ranks, lbm.HarveyAccess(), "harvey")
			if err != nil {
				return Report{}, err
			}
			actual, err := simcloud.Run(w, sys, benchSteps, rng)
			if err != nil {
				return Report{}, err
			}
			pred, err := c.Predict(perfmodel.Request{Model: perfmodel.ModelDirect, Workload: &w})
			if err != nil {
				return Report{}, err
			}
			x := float64(nodes)
			series[sys.Abbrev+"/actual"] = append(series[sys.Abbrev+"/actual"], Point{X: x, Y: actual.MFLUPS})
			series[sys.Abbrev+"/direct"] = append(series[sys.Abbrev+"/direct"], Point{X: x, Y: pred.MFLUPS})
			fmt.Fprintf(&text, "%8d %-12s %12.2f %12.2f %14.3g\n",
				nodes, sys.Abbrev, actual.MFLUPS, pred.MFLUPS, pred.CPUGPUs)
		}
	}
	return Report{
		ID:     "ext-gpu",
		Title:  "Extension: GPU instance vs CPU instances per node, with the Eq. 2 t_CPU-GPU term",
		Text:   text.String(),
		Series: series,
	}, nil
}

// ExtSharedNode sweeps co-tenant occupancy on a quarter-populated CSP-2
// node (the Discussion's shared-allocation scenario): simulated truth vs
// the occupancy-aware direct model. Series: "actual" and "direct" over
// occupancy.
func ExtSharedNode() (Report, error) {
	cyl, _, _, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	sys := machine.NewCSP2()
	c, err := perfmodel.Characterize(sys, streamSamples, newRNG())
	if err != nil {
		return Report{}, err
	}
	cache := newWorkloadCache()
	w, err := cache.workload(cyl, 9, lbm.HarveyAccess(), "harvey") // 9 of 36 cores
	if err != nil {
		return Report{}, err
	}
	series := map[string][]Point{}
	var text strings.Builder
	fmt.Fprintf(&text, "%12s %12s %12s\n", "occupancy", "actual", "direct")
	for _, occ := range []float64{0, 0.25, 0.5, 0.75, 1} {
		actual, err := simcloud.RunOpts(w, sys, benchSteps, nil, simcloud.Options{SharedOccupancy: occ})
		if err != nil {
			return Report{}, err
		}
		pred, err := c.Predict(perfmodel.Request{Model: perfmodel.ModelDirect, Workload: &w, Occupancy: occ})
		if err != nil {
			return Report{}, err
		}
		series["actual"] = append(series["actual"], Point{X: occ, Y: actual.MFLUPS})
		series["direct"] = append(series["direct"], Point{X: occ, Y: pred.MFLUPS})
		fmt.Fprintf(&text, "%12.2f %12.2f %12.2f\n", occ, actual.MFLUPS, pred.MFLUPS)
	}
	return Report{
		ID:     "ext-shared",
		Title:  "Extension: shared-node co-tenancy, measured vs occupancy-aware model",
		Text:   text.String(),
		Series: series,
	}, nil
}

// ExtTermSelection runs the Discussion's add-and-check feedback loop: the
// FLOP roofline term and a kernel-overhead term are offered to the
// selector against measured data; the report records which survive and
// the accuracy before and after. Series: "mape" with x=0 (base) and x=1
// (selected).
func ExtTermSelection() (Report, error) {
	cyl, _, _, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	sys := machine.NewCSP2()
	c, err := perfmodel.Characterize(sys, streamSamples, newRNG())
	if err != nil {
		return Report{}, err
	}
	cache := newWorkloadCache()
	var obs []perfmodel.Observation
	rng := newRNG()
	for _, ranks := range []int{4, 9, 18, 36} {
		w, err := cache.workload(cyl, ranks, lbm.HarveyAccess(), "harvey")
		if err != nil {
			return Report{}, err
		}
		res, err := simcloud.Run(w, sys, benchSteps, rng)
		if err != nil {
			return Report{}, err
		}
		obs = append(obs, perfmodel.Observation{Workload: w, MeasuredMFLUPS: res.MFLUPS})
	}
	candidates := []perfmodel.Term{
		perfmodel.FlopTerm(
			perfmodel.D3Q19BGK(lbm.HarveyAccess().PointBytes(19)),
			perfmodel.Machine{PeakGFLOPS: 1500, PeakBandwidthGBps: c.Mem.Saturation() / 1000},
		),
		perfmodel.OverheadTerm(0.18),
		perfmodel.ConstantTerm("barrier-1us", 1e-6),
	}
	res, err := c.SelectTerms(candidates, obs, 0.01)
	if err != nil {
		return Report{}, err
	}
	var text strings.Builder
	fmt.Fprintf(&text, "candidates offered: %d (workload: cylinder on %s, %d observations)\n",
		len(candidates), sys.Abbrev, len(obs))
	fmt.Fprintf(&text, "kept:     %v\n", res.Kept)
	fmt.Fprintf(&text, "rejected: %v\n", res.Rejected)
	fmt.Fprintf(&text, "MAPE: base %.1f%% -> selected %.1f%%\n", res.BaseMAPE*100, res.FinalMAPE*100)
	return Report{
		ID:    "ext-terms",
		Title: "Extension: model-term add-and-check feedback loop",
		Text:  text.String(),
		Series: map[string][]Point{
			"mape": {{X: 0, Y: res.BaseMAPE}, {X: 1, Y: res.FinalMAPE}},
		},
	}, nil
}
