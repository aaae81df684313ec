package perfmodel

import "fmt"

// This file defines the tiered-accuracy vocabulary of the prediction API
// (DESIGN.md §13). A prediction can be served at three accuracy tiers
// that trade calibration effort for error:
//
//   - Tier 0 ("tier0") is pure physics: the paper's model with its
//     parameters read off the published catalog row (SpecSheet), zero
//     fitted parameters. Available for every system, never
//     recalibrated, worst error.
//   - Tier 1 ("tier1") is the calibrated path: the same model with its
//     parameters fitted from microbenchmarks (Characterize) plus the
//     anatomy-tuned empirical laws. Needs one characterization run per
//     system.
//   - Tier 2 ("tier2") is the same model on a noiseless reference
//     characterization times a measured efficiency: per-(system,
//     kernel) rows of measured over modeled MFLUPS from real (here:
//     simulated-measured) runs, interpolated over problem size and
//     ranks. Best error, but only for systems the table has rows for.
//
// TierAuto asks the Predictor to fall back Tier 2 → Tier 1 → Tier 0 by
// data availability.
const (
	TierAuto        = "auto"
	Tier0Physics    = "tier0"
	Tier1Calibrated = "tier1"
	Tier2Measured   = "tier2"
)

// ValidTiers lists every accepted Request.Tier value, in fallback order.
// The empty string is also accepted and means "caller default" — TierAuto
// on a Predictor, Tier1Calibrated on a bare Characterization.
func ValidTiers() []string {
	return []string{TierAuto, Tier0Physics, Tier1Calibrated, Tier2Measured}
}

// checkTier validates a Request.Tier value ("" allowed).
func checkTier(tier string) error {
	switch tier {
	case "", TierAuto, Tier0Physics, Tier1Calibrated, Tier2Measured:
		return nil
	}
	return fmt.Errorf("perfmodel: unknown tier %q (valid: %v)", tier, ValidTiers())
}

// DefaultKernel is the kernel name Tier 2 reads rows of when a request
// does not name one: the HARVEY D3Q19 access pattern every serving-path
// workload runs.
const DefaultKernel = "harvey"

// Band is a deterministic confidence interval on predicted MFLUPS. It is
// provenance, not statistics: each backend derives it from its own error
// model (fit residuals for Tier 1, a noise floor widened off its rows'
// box for Tier 2, a fixed structural margin for Tier 0), so equal
// requests always yield equal bands.
type Band struct {
	LoMFLUPS float64
	HiMFLUPS float64
}

// band builds the confidence band around a central MFLUPS value with the
// given relative half-width. A half-width past 1 (Tier 1 on a poor fit)
// would put the lower edge below zero, which no run can measure, so the
// lower edge stops at 0.
func band(mflups, rel float64) Band {
	if rel < 0 {
		rel = 0
	}
	return Band{LoMFLUPS: max(0, mflups*(1-rel)), HiMFLUPS: mflups * (1 + rel)}
}
