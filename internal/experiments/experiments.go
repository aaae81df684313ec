// Package experiments regenerates every table and figure of the paper's
// evaluation section from this reproduction's substrates. Each experiment
// returns a Report containing the rendered artifact plus the structured
// series behind it, so the command-line driver prints them and the
// benchmark harness asserts on their shape. Absolute values differ from
// the paper (the testbed is a calibrated simulator, not the authors'
// clusters); orderings, crossovers and curve shapes are the reproduction
// targets, recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/simcloud"
)

// Report is one regenerated artifact.
type Report struct {
	ID    string // e.g. "table1", "fig3"
	Title string
	Text  string // rendered artifact

	// Series holds the numbers behind the artifact, keyed by a label such
	// as "TRC/cylinder"; each series is a list of (x, y) points.
	Series map[string][]Point
}

// Point is one (x, y) observation in a report series.
type Point struct {
	X float64
	Y float64
}

// seriesValue returns the y value at x in a series, or an error.
func (r Report) seriesValue(key string, x float64) (float64, error) {
	s, ok := r.Series[key]
	if !ok {
		return 0, fmt.Errorf("experiments: report %s has no series %q", r.ID, key)
	}
	for _, p := range s {
		if p.X == x { // X values are stored verbatim and looked up verbatim
			return p.Y, nil
		}
	}
	return 0, fmt.Errorf("experiments: series %q has no point at x=%g", key, x)
}

// Geometries builds the three Figure 2 anatomies at benchmark scale. The
// sizes are chosen so decompositions up to 128 ranks keep thousands of
// points per task (the regime the paper measures) while every experiment
// finishes in seconds. The paper's production meshes are finer still;
// Figure 11 extrapolates to that resolution via HighResolutionFactor.
func Geometries() (cylinder, aorta, cerebral *geometry.Domain, err error) {
	cylinder, err = geometry.Cylinder(160, 20)
	if err != nil {
		return nil, nil, nil, err
	}
	aorta, err = geometry.Aorta(12)
	if err != nil {
		return nil, nil, nil, err
	}
	cerebral, err = geometry.Cerebral(4, 4)
	if err != nil {
		return nil, nil, nil, err
	}
	return cylinder, aorta, cerebral, nil
}

// HighResolutionFactor scales a benchmark-size anatomy to the paper's
// production resolution (a 2048-core workload): 8x finer in each spatial
// dimension, so 512x the fluid points and serial bytes. Only the scalar
// workload summary scales — the z and event laws are dimensionless in the
// task count and transfer unchanged, which is precisely the generalized
// model's purpose: predicting runs too large to stage.
const HighResolutionFactor = 512

// workloadCache memoizes lattices and their decompositions, which
// dominate experiment cost. The experiments read topology only — site
// counts, bytes, partitions — so it holds lattices, not solvers.
type workloadCache struct {
	lattices map[string]*lbm.Lattice
	parts    map[string]*decomp.Partition
}

func newWorkloadCache() *workloadCache {
	return &workloadCache{
		lattices: make(map[string]*lbm.Lattice),
		parts:    make(map[string]*decomp.Partition),
	}
}

// lattice returns (building once) the lattice of a named domain under
// the standard benchmark parameters (steady bulk flow).
func (c *workloadCache) lattice(dom *geometry.Domain) (*lbm.Lattice, error) {
	if l, ok := c.lattices[dom.Name]; ok {
		return l, nil
	}
	l, err := lbm.NewLattice(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		return nil, err
	}
	c.lattices[dom.Name] = l
	return l, nil
}

// workload returns (building once) the decomposed workload for a domain,
// rank count and access model.
func (c *workloadCache) workload(dom *geometry.Domain, ranks int, m lbm.AccessModel, tag string) (simcloud.Workload, error) {
	l, err := c.lattice(dom)
	if err != nil {
		return simcloud.Workload{}, err
	}
	key := fmt.Sprintf("%s/%d/%s", dom.Name, ranks, tag)
	p, ok := c.parts[key]
	if !ok {
		p, err = decomp.RCB(l, ranks, m)
		if err != nil {
			return simcloud.Workload{}, err
		}
		c.parts[key] = p
	}
	return simcloud.FromPartition(dom.Name, l.N(), p), nil
}

// rankSweep returns the strong-scaling rank counts for a system, powers of
// two up to its core count (and at most 128, this reproduction's largest
// tested scale, matching the noise study's upper end).
func rankSweep(sys *machine.System) []int {
	var ranks []int
	for r := 2; r <= sys.MaxRanks() && r <= 128; r *= 2 {
		ranks = append(ranks, r)
	}
	return ranks
}

// renderSeries renders a report's series as aligned text columns, one
// block per series, sorted by label for stable output.
func renderSeries(series map[string][]Point, xLabel, yLabel string) string {
	labels := make([]string, 0, len(series))
	for k := range series {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	var b strings.Builder
	for _, label := range labels {
		fmt.Fprintf(&b, "%s\n", label)
		fmt.Fprintf(&b, "  %12s %14s\n", xLabel, yLabel)
		for _, p := range series[label] {
			fmt.Fprintf(&b, "  %12.6g %14.6g\n", p.X, p.Y)
		}
	}
	return b.String()
}

// newRNG returns the deterministic noise source experiments share.
func newRNG() *rand.Rand { return rand.New(rand.NewSource(2023)) }
