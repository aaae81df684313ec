package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/fit"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

// The extension studies regenerate results for the parts of the paper's
// full model (Eq. 2) and Discussion that its evaluation section defers:
// GPU execution with the t_CPU-GPU term, shared-node tenancy, and the
// add-and-check refinement of the model's terms. The first two stay
// because each is the only end-to-end check against simcloud of a model
// input a root accepts: the GPU catalog (csdash -gpu) and
// Request.Occupancy (/v1/predict). The third re-fits the prediction's
// own terms against measurements and scores the result on an anatomy
// the fit never saw.

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

// ExtTermRefit is the paper's add-and-check loop done as a regression:
// per system, it re-fits measured seconds per step on the Tier 1 direct
// prediction's own terms, the memory time MemS and the communication
// remainder SecondsPerStep − MemS, with fit.PairLSQ. Each row is scaled
// by 1/measured, so every cell weighs as a relative error. The fit trains
// on the cylinder and aorta cells of the Table-I suite (tiers.go) and is
// scored on the cerebral cells, which it never sees, against the raw
// prediction and the system-level scalar correction: the geometric mean
// of the training cells' measured/predicted MFLUPS, as
// monitor.Store.Correction computes it. The memory coefficient should
// recover simcloud.KernelOverhead, which the model omits. Series per
// system: "<system>/coef" and "<system>/se" at x=0 (memory) and x=1
// (communication); "<system>/mape" at x=0 (raw), x=1 (scalar) and x=2
// (per-term), as fractions.
func ExtTermRefit() (Report, error) {
	cfgs, err := tierSuite()
	if err != nil {
		return Report{}, err
	}
	type cell struct {
		pred     perfmodel.Prediction
		measured float64 // MFLUPS
		points   float64
	}
	var systems []string
	train, heldOut := map[string][]cell{}, map[string][]cell{}
	chars := map[string]*perfmodel.Characterization{}
	cache := newWorkloadCache()
	rng := rand.New(rand.NewSource(tierEvalSeed))
	for _, cfg := range cfgs {
		sys := cfg.sys.Abbrev
		c := chars[sys]
		if c == nil {
			if c, err = perfmodel.Characterize(cfg.sys, streamSamples, newRNG()); err != nil {
				return Report{}, err
			}
			chars[sys] = c
			systems = append(systems, sys)
		}
		w, err := cache.workload(cfg.dom, cfg.ranks, lbm.HarveyAccess(), "harvey")
		if err != nil {
			return Report{}, err
		}
		measured, err := measure(w, cfg.sys, tierEvalRuns, rng)
		if err != nil {
			return Report{}, err
		}
		pred, err := c.Predict(perfmodel.Request{Model: perfmodel.ModelDirect, Workload: &w})
		if err != nil {
			return Report{}, err
		}
		x := cell{pred: pred, measured: measured, points: float64(w.Points)}
		if cfg.dom.Name == "cerebral" {
			heldOut[sys] = append(heldOut[sys], x)
		} else {
			train[sys] = append(train[sys], x)
		}
	}

	series := map[string][]Point{}
	var text strings.Builder
	fmt.Fprintf(&text, "per-term re-fit of measured s/step on the Tier 1 direct terms, trained on cylinder+aorta, scored on cerebral\n")
	fmt.Fprintf(&text, "planted kernel overhead (simcloud.KernelOverhead): %.2f\n\n", simcloud.KernelOverhead)
	fmt.Fprintf(&text, "%-12s %17s %17s %4s | %23s\n", "", "", "", "", "held-out MAPE (%)")
	fmt.Fprintf(&text, "%-12s %17s %17s %4s | %7s %7s %7s\n", "system", "memory coef", "comm coef", "n", "raw", "scalar", "term")
	for _, sys := range systems {
		var mem, comm, ones, ratios []float64
		for _, x := range train[sys] {
			measuredS := x.points / (x.measured * 1e6)
			mem = append(mem, x.pred.MemS/measuredS)
			comm = append(comm, (x.pred.SecondsPerStep-x.pred.MemS)/measuredS)
			ones = append(ones, 1)
			ratios = append(ratios, x.measured/x.pred.MFLUPS)
		}
		pair, err := fit.PairLSQ(mem, comm, ones)
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", sys, err)
		}
		scalar := fit.GeoMean(ratios)
		var raw, scaled, term, obs []float64
		for _, x := range heldOut[sys] {
			refit := pair.B1*x.pred.MemS + pair.B2*(x.pred.SecondsPerStep-x.pred.MemS)
			raw = append(raw, x.pred.MFLUPS)
			scaled = append(scaled, x.pred.MFLUPS*scalar)
			term = append(term, x.points/refit/1e6)
			obs = append(obs, x.measured)
		}
		mapes := []float64{fit.MAPE(raw, obs), fit.MAPE(scaled, obs), fit.MAPE(term, obs)}
		series[sys+"/coef"] = []Point{{X: 0, Y: pair.B1}, {X: 1, Y: pair.B2}}
		series[sys+"/se"] = []Point{{X: 0, Y: pair.SE1}, {X: 1, Y: pair.SE2}}
		for i, m := range mapes {
			series[sys+"/mape"] = append(series[sys+"/mape"], Point{X: float64(i), Y: m})
		}
		fmt.Fprintf(&text, "%-12s %8.3f ± %6.3f %8.3f ± %6.3f %4d | %7.2f %7.2f %7.2f\n",
			sys, pair.B1, pair.SE1, pair.B2, pair.SE2, pair.N, 100*mapes[0], 100*mapes[1], 100*mapes[2])
	}
	return Report{
		ID:     "ext-terms",
		Title:  "Extension: per-term re-fit of the model against measurements",
		Text:   text.String(),
		Series: series,
	}, nil
}
