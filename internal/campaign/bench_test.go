package campaign

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/machine"
)

// prepareAllJobs is the 24-job shape the fleet example grows to on the
// bench ladder's campaign: five geometries at scales 5 to 8 (cerebral
// from 6), four more at 6, a third each at 8, 16 and 32 ranks — 19
// distinct lattices.
func prepareAllJobs() []JobConfig {
	var jobs []JobConfig
	add := func(g string, scale float64) {
		jobs = append(jobs, JobConfig{Name: fmt.Sprintf("case-%02d", len(jobs)), Geometry: g, Scale: scale,
			Ranks: 8 << (len(jobs) % 3), Steps: 3000})
	}
	for _, g := range []string{"cylinder", "aorta", "cerebral", "stenosis", "bifurcation"} {
		for scale := 5.0; scale <= 8; scale++ {
			if g == "cerebral" {
				add(g, max(scale, 6))
			} else {
				add(g, scale)
			}
		}
	}
	for _, g := range []string{"cylinder", "aorta", "stenosis", "bifurcation"} {
		add(g, 6)
	}
	return jobs
}

// BenchmarkPrepareAll takes the 24 jobs through prepareAll on a cold
// anatomy cache: "direct" as the fleet backend does, "recommend" as the
// serial one, which also fits each lattice's generalized model.
func BenchmarkPrepareAll(b *testing.B) {
	jobs := prepareAllJobs()
	fw, err := core.NewFramework(machine.Catalog(), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		recommend bool
	}{{"direct", false}, {"recommend", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fw.Anatomies = cache.New[core.AnatomyKey, *core.Anatomy](core.MaxCachedAnatomies, nil)
				if _, err := prepareAll(context.Background(), fw, jobs, c.recommend); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
