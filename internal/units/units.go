// Package units converts between physical (SI) and lattice quantities —
// the step every clinical hemodynamic simulation starts with. Given a
// vessel diameter, a blood-flow velocity and the kinematic viscosity of
// blood, it derives the lattice resolution, timestep, relaxation time and
// the dimensionless numbers (Reynolds, Womersley, lattice Mach) that
// decide whether a configuration is resolvable and stable before any
// cloud money is spent.
package units

import (
	"fmt"
	"math"
)

// BloodKinematicViscosity is the kinematic viscosity of whole blood at
// physiological hematocrit, m^2/s.
const BloodKinematicViscosity = 3.3e-6

// Physical describes the physical problem.
type Physical struct {
	DiameterM    float64 // vessel diameter, meters
	PeakSpeedMps float64 // peak flow speed, m/s
	ViscosityM2  float64 // kinematic viscosity, m^2/s (default: blood)
	HeartRateHz  float64 // cardiac frequency for pulsatile flow (0 = steady)
}

// Lattice describes the chosen discretization.
type Lattice struct {
	SitesAcross int     // lattice sites across the vessel diameter
	Tau         float64 // relaxation time
}

// Conversion is the derived mapping between the two systems.
type Conversion struct {
	DxM          float64 // meters per lattice site
	DtS          float64 // seconds per timestep
	ULattice     float64 // peak speed in lattice units
	Reynolds     float64
	Womersley    float64 // 0 for steady flow
	MachLattice  float64 // u_lattice / c_s, must stay well below 1
	StepsPerBeat float64 // timesteps per cardiac cycle (0 for steady)
}

// Convert derives the lattice configuration for a physical problem. The
// lattice viscosity follows from tau; matching physical and lattice
// Reynolds numbers fixes the timestep.
func Convert(p Physical, l Lattice) (Conversion, error) {
	if p.DiameterM <= 0 || p.PeakSpeedMps <= 0 {
		return Conversion{}, fmt.Errorf("units: diameter %g and speed %g must be positive", p.DiameterM, p.PeakSpeedMps)
	}
	if p.ViscosityM2 == 0 {
		p.ViscosityM2 = BloodKinematicViscosity
	}
	if p.ViscosityM2 < 0 {
		return Conversion{}, fmt.Errorf("units: negative viscosity %g", p.ViscosityM2)
	}
	if l.SitesAcross < 4 {
		return Conversion{}, fmt.Errorf("units: %d sites across the diameter under-resolves the vessel", l.SitesAcross)
	}
	if l.Tau <= 0.5 {
		return Conversion{}, fmt.Errorf("units: tau %g must exceed 0.5", l.Tau)
	}
	var c Conversion
	c.DxM = p.DiameterM / float64(l.SitesAcross)
	nuLattice := (l.Tau - 0.5) / 3
	// nu_phys = nu_lattice * dx^2 / dt  =>  dt = nu_lattice dx^2 / nu_phys.
	c.DtS = nuLattice * c.DxM * c.DxM / p.ViscosityM2
	c.ULattice = p.PeakSpeedMps * c.DtS / c.DxM
	c.Reynolds = p.PeakSpeedMps * p.DiameterM / p.ViscosityM2
	c.MachLattice = c.ULattice / (1 / math.Sqrt(3))
	if p.HeartRateHz > 0 {
		omega := 2 * math.Pi * p.HeartRateHz
		c.Womersley = p.DiameterM / 2 * math.Sqrt(omega/p.ViscosityM2)
		c.StepsPerBeat = 1 / (p.HeartRateHz * c.DtS)
	}
	return c, nil
}

// Check reports configuration problems a domain expert would flag before
// submitting the job: compressibility error from a too-large lattice
// Mach number, and under-resolution of the oscillatory boundary layer
// for pulsatile runs.
func (c Conversion) Check() []string {
	var warnings []string
	if c.MachLattice > 0.3 {
		warnings = append(warnings, fmt.Sprintf(
			"lattice Mach %.2f above 0.3: compressibility error will pollute the flow; increase resolution or tau", c.MachLattice))
	}
	if c.ULattice > 0.1 {
		warnings = append(warnings, fmt.Sprintf(
			"lattice speed %.3f above 0.1: accuracy degrades", c.ULattice))
	}
	if c.Womersley > 0 && c.StepsPerBeat < 200 {
		warnings = append(warnings, fmt.Sprintf(
			"only %.0f timesteps per cardiac cycle: temporal resolution too coarse", c.StepsPerBeat))
	}
	return warnings
}

// String summarizes the conversion.
func (c Conversion) String() string {
	s := fmt.Sprintf("dx=%.3g m, dt=%.3g s, u=%.4f lu, Re=%.0f, Ma=%.3f",
		c.DxM, c.DtS, c.ULattice, c.Reynolds, c.MachLattice)
	if c.Womersley > 0 {
		s += fmt.Sprintf(", Wo=%.1f, %.0f steps/beat", c.Womersley, c.StepsPerBeat)
	}
	return s
}

// StepsForPhysicalTime returns the timestep count covering the given
// physical duration.
func (c Conversion) StepsForPhysicalTime(seconds float64) int {
	if c.DtS <= 0 {
		return 0
	}
	return int(math.Ceil(seconds / c.DtS))
}
