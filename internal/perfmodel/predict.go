package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/simcloud"
)

// This file is the prediction entrypoint of every tier. Every caller
// goes through Predict, on a Characterization or via a tiered Predictor
// (backend.go), and all three tiers evaluate the same
// predictDirect/predictGeneral pair, so a behavior change lands in
// exactly one place.

// Model names for Request.Model and Prediction.Model.
const (
	// ModelDirect is the Section II-D direct model: it prices an actual
	// parallel decomposition (every task's bytes and halo messages).
	ModelDirect = "direct"
	// ModelGeneral is the generalized model: it estimates the
	// decomposition a priori from scalar workload descriptors.
	ModelGeneral = "generalized"
)

// Request carries the inputs of one model evaluation. Exactly one input
// family must be populated: Workload for the direct model, Summary (plus
// General and Ranks) for the generalized model. Model may be left empty
// when the populated family makes the choice unambiguous.
type Request struct {
	// Model selects the predictor: ModelDirect, ModelGeneral, or ""
	// to infer from whichever of Workload/Summary is set.
	Model string

	// Workload is the decomposed workload the direct model prices.
	Workload *simcloud.Workload

	// Occupancy (direct model only) is the assumed fraction of the
	// node's remaining cores busy with other tenants' memory traffic,
	// in [0,1]. Zero models the paper's node-exclusive allocation.
	Occupancy float64

	// Summary is the scalar workload description the generalized model
	// works from.
	Summary *WorkloadSummary

	// General carries the anatomy-tuned empirical laws (z-law, event
	// law, per-point comm bytes) the generalized model needs. Tiers 0
	// and 2 ignore it and run on FixedLaws.
	General GeneralModel

	// Ranks is the task count for the generalized model. For the direct
	// model it is implied by the decomposition; a non-zero value that
	// disagrees with len(Workload.Tasks) is rejected.
	Ranks int

	// Tier selects the accuracy tier (tier.go). On a Predictor, "" and
	// TierAuto fall back Tier 2 → 1 → 0 by data availability; a bare
	// Characterization serves "" and Tier1Calibrated only.
	Tier string

	// Kernel names the compute kernel whose Tier 2 efficiency rows
	// apply (DefaultKernel when empty). Tiers 0 and 1 ignore it: their
	// byte counts already encode the access pattern.
	Kernel string
}

// model names the model the request selects — Model, or whichever of
// Workload/Summary is populated — and checks that model's input is
// present: the dispatch the two analytical tiers share. A nil error means
// ModelDirect with a Workload or ModelGeneral with a Summary.
func (req Request) model() (string, error) {
	model := req.Model
	if model == "" {
		switch {
		case req.Workload != nil && req.Summary != nil:
			return "", fmt.Errorf("perfmodel: request carries both a decomposed workload and a summary; set Model to disambiguate")
		case req.Workload != nil:
			model = ModelDirect
		case req.Summary != nil:
			model = ModelGeneral
		default:
			return "", fmt.Errorf("perfmodel: request carries neither a decomposed workload nor a workload summary")
		}
	}
	switch model {
	case ModelDirect:
		if req.Workload == nil {
			return "", fmt.Errorf("perfmodel: direct model needs a decomposed workload")
		}
		if req.Ranks != 0 && req.Ranks != len(req.Workload.Tasks) {
			return "", fmt.Errorf("perfmodel: request asks for %d ranks but the workload decomposes into %d tasks",
				req.Ranks, len(req.Workload.Tasks))
		}
	case ModelGeneral:
		if req.Summary == nil {
			return "", fmt.Errorf("perfmodel: generalized model needs a workload summary")
		}
	default:
		return "", fmt.Errorf("perfmodel: unknown model %q", model)
	}
	return model, nil
}

// Predict evaluates the requested model at Tier 1: the fitted
// microbenchmark models this Characterization holds. It is the one call
// path behind both the CLI tools and the serving layer's POST
// /v1/predict; other tiers are reached through a Predictor.
func (c *Characterization) Predict(req Request) (Prediction, error) {
	if req.Tier != "" && req.Tier != Tier1Calibrated {
		if err := checkTier(req.Tier); err != nil {
			return Prediction{}, err
		}
		return Prediction{}, fmt.Errorf("perfmodel: a bare characterization serves tier %q only (requested %q); use a Predictor for other tiers",
			Tier1Calibrated, req.Tier)
	}
	return c.predict(req, Tier1Calibrated)
}

// predict evaluates req on c's parameters and stamps the provenance of
// tier. Tier 1 carries its fit residual and flags generalized predictions
// past the characterized instance. Tier 0 carries a fixed band. Tiers 0
// and 2 price the generalized model on FixedLaws whatever laws the
// request carries — the laws Tier 2's table's general efficiencies were
// measured against; at Tier 0 the event law adds nothing, since SpecSheet
// prices every link at zero latency. Table.scale then sets Tier 2's band.
func (c *Characterization) predict(req Request, tier string) (Prediction, error) {
	model, err := req.model()
	if err != nil {
		return Prediction{}, err
	}
	g := req.General
	if tier != Tier1Calibrated {
		g = FixedLaws()
	}
	var p Prediction
	if model == ModelDirect {
		p, err = c.predictDirect(*req.Workload, req.Occupancy)
	} else {
		p, err = c.predictGeneral(*req.Summary, g, req.Ranks)
		// Figure 11 territory: ranks beyond the characterized instance —
		// the fits are being stretched past their data.
		p.Extrapolated = tier == Tier1Calibrated && req.Ranks > c.TotalCores
	}
	if err != nil {
		return Prediction{}, err
	}
	p.Tier = tier
	switch tier {
	case Tier0Physics:
		p.Confidence = band(p.MFLUPS, Tier0ConfidenceRel)
	case Tier1Calibrated:
		p.FitResidual = c.fitResidual()
		p.Confidence = band(p.MFLUPS, Tier1BaseConfidenceRel+p.FitResidual)
	}
	return p, nil
}

// Tier1BaseConfidenceRel is the calibrated tier's confidence half-width
// floor — the error Table I reports even where the fits are perfect
// (model-form error: block placement, Eq. 13's geometric halo). The fit
// residual widens the band on noisy characterizations.
const Tier1BaseConfidenceRel = 0.15

// fitResidual is 1 − min(R²) over the three calibrated fits.
func (c *Characterization) fitResidual() float64 {
	r2 := math.Min(c.FitQuality.MemR2, math.Min(c.FitQuality.InterR2, c.FitQuality.IntraR2))
	return 1 - math.Max(0, math.Min(1, r2))
}

// Tier0ConfidenceRel is the fixed relative half-width of Tier 0's
// confidence band: the structural uncertainty of predicting from
// published specs alone, bracketed by the spread the paper reports
// between published and sustained bandwidth.
const Tier0ConfidenceRel = 0.40

// ModelBackend serves one tier of a Predictor: the one model formula
// (Eqs. 6–16) on one Characterization. The tiers differ only in where its
// parameters come from — the catalog row (SpecSheet), the microbenchmark
// fits (Characterize) or a table's noiseless reference times a measured
// efficiency — and in the provenance stamped on each prediction.
type ModelBackend struct {
	Char  *Characterization
	tier  string
	table *Table // Tier 2's efficiencies; nil on Tiers 0 and 1
}

// NewPhysicsBackend is Tier 0: the model on a catalog row's spec sheet.
// With zero fitted parameters it serves every system and never needs
// recalibration, which makes it the TierAuto floor.
func NewPhysicsBackend(sys *machine.System) *ModelBackend {
	return &ModelBackend{Char: SpecSheet(sys), tier: Tier0Physics}
}

// NewCalibratedBackend is Tier 1: the model on a characterization's fits.
func NewCalibratedBackend(c *Characterization) *ModelBackend {
	return &ModelBackend{Char: c, tier: Tier1Calibrated}
}

// NewLookupBackend is Tier 2: the model on table's reference
// characterization of system, scaled by the efficiency the table
// measured. It covers nothing on a system the table has no rows for.
func NewLookupBackend(system string, table *Table) *ModelBackend {
	b := &ModelBackend{tier: Tier2Measured, table: table}
	if table != nil {
		b.Char = table.refs[system]
	}
	return b
}

// Tier returns the backend's tier.
func (b *ModelBackend) Tier() string { return b.tier }

// Covers reports whether the backend can serve the request: any
// decomposed workload or summary, and at Tier 2 only with rows for
// (system, kernel) and no occupancy sharing, which the table never
// measured.
func (b *ModelBackend) Covers(req Request) bool {
	if b.Char == nil || (req.Workload == nil && req.Summary == nil) {
		return false
	}
	return b.table == nil || req.Occupancy == 0 && b.table.Covers(b.Char.System, req.Kernel)
}

// Predict evaluates the request at the backend's tier.
func (b *ModelBackend) Predict(req Request) (Prediction, error) {
	if b.Char == nil {
		return Prediction{}, fmt.Errorf("%w: no characterization for tier %q", ErrNoData, b.tier)
	}
	if b.table != nil && req.Occupancy > 0 {
		return Prediction{}, fmt.Errorf("perfmodel: measured tier does not model occupancy sharing")
	}
	p, err := b.Char.predict(req, b.tier)
	if err != nil || b.table == nil {
		return p, err
	}
	return b.table.scale(p, req)
}
