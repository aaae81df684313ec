package perfmodel

import (
	"errors"
	"fmt"
)

// ErrNoData reports that the backend a request explicitly asked for does
// not have the data to serve it — e.g. a Tier 2 request on a system the
// table does not cover, or a Tier 1 request without a characterization.
// TierAuto never returns it (Tier 0 covers everything); serving layers
// map it to a client error rather than a server fault.
var ErrNoData = errors.New("perfmodel: no data for requested tier")

// Backend serves predictions at one accuracy tier. The implementation is
// ModelBackend — Tier 0 (NewPhysicsBackend, the model on a SpecSheet),
// Tier 1 (NewCalibratedBackend, the model on the fits) and Tier 2
// (NewLookupBackend, the model times a measured efficiency); a Predictor
// composes them behind the tier selector.
type Backend interface {
	// Tier returns the backend's tier name (Tier0Physics, ...).
	Tier() string
	// Covers reports whether the backend's data reaches the request —
	// the availability test behind TierAuto's 2 → 1 → 0 fallback.
	Covers(req Request) bool
	// Predict evaluates the request. The returned Prediction carries
	// the backend's tier and provenance (confidence band, fit
	// residual, extrapolation flag).
	Predict(req Request) (Prediction, error)
}

// Predictor is the tiered prediction front door for one system: it owns
// one backend per configured tier and routes each Request by its Tier
// field. This is the decoupling the serving stack needed — calibration
// state (Characterization) is just one backend among three, so a cache
// or a policy search can hold exactly the tiers it has data for.
type Predictor struct {
	backends map[string]Backend
}

// NewPredictor composes backends into a tiered predictor. Each tier may
// appear at most once; at least one backend is required.
func NewPredictor(backends ...Backend) (*Predictor, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("perfmodel: predictor needs at least one backend")
	}
	p := &Predictor{backends: make(map[string]Backend, len(backends))}
	for _, b := range backends {
		t := b.Tier()
		if err := checkTier(t); err != nil || t == TierAuto || t == "" {
			return nil, fmt.Errorf("perfmodel: backend reports invalid tier %q", t)
		}
		if _, dup := p.backends[t]; dup {
			return nil, fmt.Errorf("perfmodel: duplicate backend for tier %q", t)
		}
		p.backends[t] = b
	}
	return p, nil
}

// Tiers returns the configured tier names in fallback order (2, 1, 0).
func (p *Predictor) Tiers() []string {
	var out []string
	for _, t := range fallbackOrder {
		if _, ok := p.backends[t]; ok {
			out = append(out, t)
		}
	}
	return out
}

// fallbackOrder is TierAuto's resolution sequence: most-accurate first.
var fallbackOrder = []string{Tier2Measured, Tier1Calibrated, Tier0Physics}

// Resolve returns the backend that would serve a request at the given
// tier ("" and TierAuto both fall back by availability). An explicit
// tier whose backend is missing or does not cover the request resolves
// to an ErrNoData-wrapped error.
func (p *Predictor) Resolve(tier string, req Request) (Backend, error) {
	if err := checkTier(tier); err != nil {
		return nil, err
	}
	if tier == "" || tier == TierAuto {
		for _, t := range fallbackOrder {
			if b, ok := p.backends[t]; ok && b.Covers(req) {
				return b, nil
			}
		}
		return nil, fmt.Errorf("%w: no configured backend covers the request", ErrNoData)
	}
	b, ok := p.backends[tier]
	if !ok {
		return nil, fmt.Errorf("%w: tier %q has no backend configured", ErrNoData, tier)
	}
	if !b.Covers(req) {
		return nil, fmt.Errorf("%w: tier %q does not cover the request", ErrNoData, tier)
	}
	return b, nil
}

// Predict routes the request to its tier's backend. Request.Tier empty
// or TierAuto selects the most accurate covering backend (2 → 1 → 0).
func (p *Predictor) Predict(req Request) (Prediction, error) {
	b, err := p.Resolve(req.Tier, req)
	if err != nil {
		return Prediction{}, err
	}
	return b.Predict(req)
}
