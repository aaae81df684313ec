// Package cloud is the simulated cloud service provider's catalog, its
// clock and its spot market terms. Simulated epoch time lets campaigns
// span days (the 7-day noise study) in microseconds of real time. Jobs
// are metered, guarded and billed by internal/fleet, the one executor,
// at these prices and spot terms.
package cloud

import (
	"fmt"

	"repro/internal/machine"
)

// Provider is a simulated CSP offering the systems of a catalog.
type Provider struct {
	systems map[string]*machine.System
	clock   float64 // simulated epoch seconds
}

// NewProvider creates a provider over the given systems.
func NewProvider(systems []*machine.System) *Provider {
	p := &Provider{systems: make(map[string]*machine.System, len(systems))}
	for _, s := range systems {
		p.systems[s.Abbrev] = s
	}
	return p
}

// Clock returns the simulated epoch time in seconds.
func (p *Provider) Clock() float64 { return p.clock }

// Advance moves simulated time forward (e.g. the 6-hour intervals of the
// noise study). Negative durations are rejected.
func (p *Provider) Advance(seconds float64) error {
	if seconds < 0 {
		return fmt.Errorf("cloud: cannot advance time by %g", seconds)
	}
	p.clock += seconds
	return nil
}

// System looks up a catalog system by abbreviation.
func (p *Provider) System(abbrev string) (*machine.System, error) {
	s, ok := p.systems[abbrev]
	if !ok {
		return nil, fmt.Errorf("cloud: provider does not offer %q", abbrev)
	}
	return s, nil
}

// Spot market constants: the discount relative to on-demand pricing and
// the reclaim hazard, expressed as expected preemptions per node-hour.
// Both are synthetic but proportioned like 2022-era spot markets.
const (
	SpotDiscount          = 0.30
	SpotPreemptionPerHour = 1.5
)
