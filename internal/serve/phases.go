package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/decomp"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
)

// The service caches the paper's two phases (Figure 1) as the two
// objects the rest of the repository already uses, each under the key
// it is a pure function of:
//
//   - phase two, a *core.Anatomy per workload "geometry@scale": the
//     sparse lattice, its byte summary, the memoized decompositions and
//     the anatomy-tuned generalized model, fitted on the first
//     generalized request — machine-independent but for the calibration
//     node width, a server constant;
//   - phase one, a dashboard.Entry per "system|seed|tier": the
//     microbenchmark characterization (Tier 1 and auto only) behind the
//     tiered predictor — anatomy-independent.
//
// Equal keys always yield byte-identical state (Samples, the node width
// and the Tier 2 table are server constants), so neither cache can serve
// a stale or divergent value, and a reply is anatomy × entry whatever
// order the two were built in.

// normalizeTier maps the API's empty tier to the pre-tier default, the
// calibrated Tier 1 path, keeping legacy requests byte-compatible.
func normalizeTier(tier string) string {
	if tier == "" {
		return perfmodel.Tier1Calibrated
	}
	return tier
}

// needsCharacterization reports whether the tier's entry pays for the
// microbenchmark fit: the calibrated tier and auto (which may serve
// tier1 predictions). Pure physics and Tier 2's reference skip it — that
// skip is the point of the cheap tiers.
func needsCharacterization(tier string) bool {
	return tier == perfmodel.Tier1Calibrated || tier == perfmodel.TierAuto
}

// anatomyFor serves the workload's prepared anatomy from the server's
// anatomy cache through core.CachedAnatomy — the function a campaign's
// jobs prepare through, on the same cache (see campaignManager) — under
// the service's fixed solver parameters. ctx is checked between the
// expensive stages, so a deadline-bound request abandons the build
// promptly; the stages themselves are uninterruptible. ranks are the
// counts the request will have decomposed: a build decomposes them in one
// sweep (core.NewAnatomy).
func (s *Server) anatomyFor(ctx context.Context, spec WorkloadSpec, ranks ...int) (*core.Anatomy, error) {
	key := core.AnatomyKey{
		Geometry:     spec.Geometry,
		Scale:        spec.Scale,
		Params:       lbm.Params{Tau: 0.9, UMax: 0.02},
		CoresPerNode: machine.WidestNode(s.cfg.Systems),
	}
	return core.CachedAnatomy(ctx, s.anatomies, key, spec.Geometry, func() (*geometry.Domain, error) {
		dom, err := campaign.BuildGeometry(spec.Geometry, spec.Scale)
		if err != nil {
			return nil, &apiError{status: http.StatusBadRequest, msg: err.Error()}
		}
		return dom, nil
	}, ranks...)
}

// entryFor serves the system's dashboard entry at a seed and a
// normalized (never empty) tier. The tier is part of the key because
// tiers build different state — Tier 0 and 2 skip characterization
// entirely — so predictions at different tiers never share an entry.
func (s *Server) entryFor(ctx context.Context, sys *machine.System, seed int64, tier string) (dashboard.Entry, cache.Result, error) {
	key := fmt.Sprintf("%s|%d|%s", sys.Abbrev, seed, tier)
	return s.entries.Get(ctx, key, func() (dashboard.Entry, error) {
		if err := ctx.Err(); err != nil {
			return dashboard.Entry{}, err
		}
		var char *perfmodel.Characterization
		if needsCharacterization(tier) {
			var err error
			char, err = perfmodel.Characterize(sys, s.cfg.Samples, rand.New(rand.NewSource(seed)))
			if err != nil {
				return dashboard.Entry{}, err
			}
		}
		return dashboard.NewEntry(sys, char, s.cfg.Table)
	})
}

// predict evaluates the requested model on the anatomy through the
// entry's tiered predictor. The tier rides on every request: explicit
// tiers route to exactly that backend (a missing one is
// perfmodel.ErrNoData, a 400), auto falls back tier2 → tier1 → tier0 by
// coverage. The direct model decomposes one task per rank, so more
// ranks than the lattice has fluid sites is the request's mistake: 400,
// naming the limit.
func predict(a *core.Anatomy, e dashboard.Entry, model, tier string, ranks int, occupancy float64) (perfmodel.Prediction, error) {
	if model != perfmodel.ModelDirect {
		g, err := a.General()
		if err != nil {
			return perfmodel.Prediction{}, err
		}
		return e.Predict(perfmodel.Request{
			Model:   perfmodel.ModelGeneral,
			Summary: &a.Summary,
			General: g,
			Ranks:   ranks,
			Tier:    tier,
		})
	}
	w, err := a.Workload(ranks)
	if err != nil {
		var tc *decomp.TaskCountError
		if errors.As(err, &tc) {
			err = &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(
				"ranks %d exceeds the workload's %d fluid sites: the direct model decomposes one task per rank",
				tc.NTasks, tc.Sites)}
		}
		return perfmodel.Prediction{}, err
	}
	return e.Predict(perfmodel.Request{
		Model:     perfmodel.ModelDirect,
		Workload:  &w,
		Occupancy: occupancy,
		Tier:      tier,
	})
}
