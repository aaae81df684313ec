package experiments

import (
	"fmt"

	"repro/internal/dashboard"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
)

// Fig11 regenerates the relative-value heatmap (Figure 11): r_{B,A} of
// Eq. 17 for HARVEY on the aorta at 2048 cores, predicted by the
// generalized model on TRC, CSP-2 and CSP-2 EC. Series: "<B>/<A>" single
// points carrying the ratio.
func Fig11() (Report, error) {
	_, aorta, _, err := Geometries()
	if err != nil {
		return Report{}, err
	}
	l, err := newWorkloadCache().lattice(aorta)
	if err != nil {
		return Report{}, err
	}
	access := lbm.HarveyAccess()
	systems := []*machine.System{machine.NewTRC(), machine.NewCSP2(), machine.NewCSP2EC()}
	d, err := dashboard.Build(systems, streamSamples, newRNG())
	if err != nil {
		return Report{}, err
	}
	// Tune the z and event laws on the aorta decomposition, with node
	// width from the largest node among the compared systems.
	g, err := perfmodel.CalibrateGeneral(l, access, []int{1, 2, 4, 8, 16, 32, 64, 128, 256}, machine.WidestNode(systems))
	if err != nil {
		return Report{}, err
	}
	// Figure 11 rates a production-resolution aorta on 2048 cores. Scale
	// the summary to that resolution; the dimensionless z and event laws
	// calibrated on the benchmark mesh carry over.
	ws := perfmodel.WorkloadSummary{
		Name:        "aorta-hires",
		Points:      l.N() * HighResolutionFactor,
		BytesSerial: l.BytesSerial(access) * HighResolutionFactor,
	}
	const ranks = 2048
	as, err := d.AssessTier(ws, g, ranks, benchSteps, perfmodel.Tier1Calibrated)
	if err != nil {
		return Report{}, err
	}
	m := dashboard.RelativeValue(as)
	series := map[string][]Point{}
	for i := range as {
		for j := range as {
			key := fmt.Sprintf("%s/%s", as[i].System, as[j].System)
			series[key] = []Point{{X: 0, Y: m[i][j]}}
		}
	}
	text := fmt.Sprintf("Relative value r_B,A — HARVEY aorta, %d cores (generalized model)\n\n%s\n%s",
		ranks, dashboard.RenderHeatmap(as, m), dashboard.RenderAssessments(as))
	return Report{
		ID:     "fig11",
		Title:  "Figure 11: relative-value heatmap, aorta at 2048 cores",
		Text:   text,
		Series: series,
	}, nil
}
