package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

// calibKey is the calibration cache identity. Determinism contract:
// everything the calibration computes is a pure function of these four
// fields plus server-constant configuration (Samples, the catalog's
// largest node width, the lookup table), so equal keys always yield
// byte-identical model state and the cache can never serve a stale or
// divergent entry. Tier is part of the key because tiers build different
// model state (Tier 0 skips characterization entirely), so predictions
// at different tiers must never share a cache slot.
type calibKey struct {
	System   string
	Workload string // WorkloadSpec.key(): "geometry@scale"
	Seed     int64
	Tier     string // normalized: never empty
}

func (k calibKey) String() string {
	return fmt.Sprintf("%s|%s|%d|%s", k.System, k.Workload, k.Seed, k.Tier)
}

// normalizeTier maps the API's empty tier to the pre-tier default, the
// calibrated Tier 1 path, keeping legacy requests byte-compatible.
func normalizeTier(tier string) string {
	if tier == "" {
		return perfmodel.Tier1Calibrated
	}
	return tier
}

// calibration bundles the expensive model state for one cache key:
// phase one's microbenchmark characterization of the system (Tier 1 and
// auto only — Tier 0 and 2 never pay for it) and phase two's
// anatomy-tuned generalized model, plus memoized decompositions for the
// direct model's rank counts. pred is the tiered front door every
// prediction routes through; tier is the key's normalized tier, stamped
// on each Request.
type calibration struct {
	sys     *machine.System
	tier    string
	pred    *perfmodel.Predictor
	char    *perfmodel.Characterization // nil for tier0/tier2 builds
	summary perfmodel.WorkloadSummary
	general perfmodel.GeneralModel
	solver  *lbm.Sparse
	access  lbm.AccessModel

	workloads core.WorkloadMemo
}

// needsCharacterization reports whether the tier's build pays for the
// microbenchmark fit: the calibrated tier and auto (which may serve
// tier1 predictions). Pure physics and measured lookup skip it — that
// skip is the point of the cheap tiers.
func needsCharacterization(tier string) bool {
	return tier == perfmodel.Tier1Calibrated || tier == perfmodel.TierAuto
}

// buildCalibration runs the cold path: characterize the system from
// microbenchmarks (when the tier needs the fit), build the workload
// geometry and solver, and tune the generalized model to it. ctx is
// checked between the expensive stages, so a deadline-bound request
// abandons the build promptly; the stages themselves are
// uninterruptible.
func (s *Server) buildCalibration(ctx context.Context, key calibKey, spec WorkloadSpec) (*calibration, error) {
	sys, err := s.system(key.System)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var char *perfmodel.Characterization
	if needsCharacterization(key.Tier) {
		rng := rand.New(rand.NewSource(key.Seed))
		char, err = perfmodel.Characterize(sys, s.cfg.Samples, rng)
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dom, err := campaign.BuildGeometry(spec.Geometry, spec.Scale)
	if err != nil {
		return nil, &apiError{status: 400, msg: err.Error()}
	}
	solver, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	access := lbm.HarveyAccess()
	var general perfmodel.GeneralModel
	if char != nil {
		general, err = perfmodel.CalibrateGeneral(solver, access, core.CalibrationCounts(solver.N()), s.coresPerNode)
		if err != nil {
			return nil, err
		}
	}
	backends := []perfmodel.Backend{perfmodel.NewPhysicsBackend(sys)}
	if char != nil {
		backends = append(backends, perfmodel.NewCalibratedBackend(char))
	}
	if s.cfg.Table != nil {
		backends = append(backends, perfmodel.NewLookupBackend(sys.Abbrev, s.cfg.Table))
	}
	pred, err := perfmodel.NewPredictor(backends...)
	if err != nil {
		return nil, err
	}
	return &calibration{
		sys:  sys,
		tier: key.Tier,
		pred: pred,
		char: char,
		summary: perfmodel.WorkloadSummary{
			Name:        spec.Geometry,
			Points:      solver.N(),
			BytesSerial: solver.BytesSerial(access),
		},
		general: general,
		solver:  solver,
		access:  access,
	}, nil
}

// calibrationFor resolves the cache key and serves the calibration from
// the LRU, coalescing concurrent identical builds. tier must already be
// normalized (never empty) — it qualifies the cache key, so predictions
// at different tiers never share an entry.
func (s *Server) calibrationFor(ctx context.Context, system string, spec WorkloadSpec, seed int64, tier string) (*calibration, cacheResult, error) {
	key := calibKey{System: system, Workload: spec.key(), Seed: seed, Tier: tier}
	cal, res, err := s.cache.get(ctx, key.String(), func() (*calibration, error) {
		return s.buildCalibration(ctx, key, spec)
	})
	switch res {
	case cacheHit:
		s.cacheHits.Inc()
	case cacheMiss:
		s.cacheMisses.Inc()
	case cacheCoalesced:
		s.cacheCoalesced.Inc()
	}
	return cal, res, err
}

// workload returns the RCB decomposition at the given rank count from
// the calibration's bounded memo — the direct model's analogue of the
// cached generalized laws. More ranks than the lattice has fluid sites
// is the request's mistake: 400, naming the limit.
func (c *calibration) workload(ranks int) (simcloud.Workload, error) {
	w, err := c.workloads.Workload(c.summary.Name, c.solver, c.access, ranks)
	var tc *decomp.TaskCountError
	if errors.As(err, &tc) {
		return w, &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(
			"ranks %d exceeds the workload's %d fluid sites: the direct model decomposes one task per rank",
			tc.NTasks, tc.Sites)}
	}
	return w, err
}

// predict evaluates the requested model through the tiered Predictor.
// The calibration's own tier rides on every request: explicit tiers
// route to exactly that backend (a missing one is perfmodel.ErrNoData,
// a 400), auto falls back tier2 → tier1 → tier0 by coverage.
func (c *calibration) predict(model string, ranks int, occupancy float64) (perfmodel.Prediction, error) {
	if model == perfmodel.ModelDirect {
		w, err := c.workload(ranks)
		if err != nil {
			return perfmodel.Prediction{}, err
		}
		return c.pred.Predict(perfmodel.Request{
			Model:     perfmodel.ModelDirect,
			Workload:  &w,
			Occupancy: occupancy,
			Tier:      c.tier,
		})
	}
	return c.pred.Predict(perfmodel.Request{
		Model:   perfmodel.ModelGeneral,
		Summary: &c.summary,
		General: c.general,
		Ranks:   ranks,
		Tier:    c.tier,
	})
}
