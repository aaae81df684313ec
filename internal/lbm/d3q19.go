// Package lbm implements the lattice Boltzmann solvers the paper measures:
// a HARVEY-like sparse production engine (indirect addressing over complex
// vascular geometries, D3Q19, BGK collision, Poiseuille inlets,
// zero-pressure outlets, halo-exchange parallelism via internal/par) and an
// lbm-proxy-app equivalent (the same engine on a cylinder, in its six
// kernel variants: AOS and SOA layouts, AB and AA propagation patterns,
// rolled and unrolled collision).
//
// Besides running real fluid dynamics, every engine counts its memory
// accesses per fluid point exactly as Eq. 9 of the paper requires, which is
// what the direct performance model consumes.
package lbm

import (
	"fmt"
	"math"
)

// NQ is the number of discrete velocities in the D3Q19 lattice.
const NQ = 19

// D3Q19 velocity set. Index 0 is the rest vector; 1..6 the face
// neighbors; 7..18 the edge neighbors.
var (
	Cx = [NQ]int{0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0}
	Cy = [NQ]int{0, 0, 0, 1, -1, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1}
	Cz = [NQ]int{0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1}
)

// W holds the D3Q19 quadrature weights: 1/3 for rest, 1/18 for face
// directions, 1/36 for edge directions.
var W = [NQ]float64{
	1.0 / 3,
	1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
}

// Opp maps each direction to its opposite, used by bounce-back and the AA
// propagation pattern. Initialized at package load and verified by tests.
var Opp [NQ]int

func init() {
	for q := 0; q < NQ; q++ {
		found := false
		for p := 0; p < NQ; p++ {
			if Cx[p] == -Cx[q] && Cy[p] == -Cy[q] && Cz[p] == -Cz[q] {
				Opp[q] = p
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("lbm: no opposite for direction %d", q))
		}
	}
}

// Equilibrium fills feq with the Maxwell-Boltzmann equilibrium
// distribution for density rho and velocity (ux, uy, uz), the second-order
// expansion standard for isothermal LBM:
//
//	feq_q = w_q rho (1 + 3 c·u + 9/2 (c·u)^2 - 3/2 u·u)
//
//lint:hot
func Equilibrium(rho, ux, uy, uz float64, feq *[NQ]float64) {
	usq := 1.5 * (ux*ux + uy*uy + uz*uz)
	for q := 0; q < NQ; q++ {
		cu := 3 * (float64(Cx[q])*ux + float64(Cy[q])*uy + float64(Cz[q])*uz)
		feq[q] = W[q] * rho * (1 + cu + 0.5*cu*cu - usq)
	}
}

// Moments returns density and momentum-derived velocity of a distribution.
//
//lint:hot
func Moments(f *[NQ]float64) (rho, ux, uy, uz float64) {
	for q := 0; q < NQ; q++ {
		rho += f[q]
		ux += f[q] * float64(Cx[q])
		uy += f[q] * float64(Cy[q])
		uz += f[q] * float64(Cz[q])
	}
	if rho != 0 {
		ux /= rho
		uy /= rho
		uz /= rho
	}
	return rho, ux, uy, uz
}

// Params configures a solver run.
type Params struct {
	// Tau is the BGK relaxation time; kinematic viscosity is
	// (Tau - 0.5) / 3 in lattice units. Stability requires Tau > 0.5.
	Tau float64

	// UMax is the peak inlet velocity (lattice units) of the Poiseuille
	// profile. Keep well below 0.1 for accuracy.
	UMax float64

	// Force is an optional uniform body force density, used with periodic
	// domains for force-driven validation flows.
	Force [3]float64

	// PeriodicX wraps streaming across the x faces. Inlet/outlet sites are
	// treated as bulk fluid in periodic runs.
	PeriodicX bool

	// Collision selects the collision operator (BGK, the paper's HARVEY
	// configuration, or TRT).
	Collision CollisionOp

	// Pulsatile, when Period > 0, modulates the inlet velocity over the
	// cardiac cycle: u(t) = UMax * (1 + Amplitude*sin(2*pi*t/Period)),
	// with t the timestep count. Hemodynamic inflow is pulsatile; steady
	// bulk flow (the paper's benchmark setting) is Period == 0.
	Pulsatile Waveform
}

// Waveform parameterizes the periodic inlet modulation.
type Waveform struct {
	Period    float64 // timesteps per cardiac cycle (0 disables)
	Amplitude float64 // fractional modulation, in [0, 1)
}

// Scale returns the inlet velocity multiplier at timestep t.
func (w Waveform) Scale(t int) float64 {
	if w.Period <= 0 {
		return 1
	}
	return 1 + w.Amplitude*math.Sin(2*math.Pi*float64(t)/w.Period)
}

// Validate checks physical and numerical sanity.
func (p Params) Validate() error {
	if p.Tau <= 0.5 {
		return fmt.Errorf("lbm: tau %g must exceed 0.5 for stability", p.Tau)
	}
	if p.Tau > 5 {
		return fmt.Errorf("lbm: tau %g unreasonably large", p.Tau)
	}
	if p.UMax < 0 || p.UMax > 0.3 {
		return fmt.Errorf("lbm: inlet velocity %g outside [0, 0.3] lattice units", p.UMax)
	}
	for _, g := range p.Force {
		if g > 1e-2 || g < -1e-2 {
			return fmt.Errorf("lbm: body force %g too large for first-order forcing", g)
		}
	}
	if err := validateCollision(p); err != nil {
		return err
	}
	if p.Pulsatile.Period < 0 {
		return fmt.Errorf("lbm: pulsatile period %g negative", p.Pulsatile.Period)
	}
	// Amplitudes above 1 reverse the inflow for part of the cycle, as
	// physiological flow does in diastole; 2 bounds the magnitude. The
	// range holds on a steady run too, where the amplitude is unused, so
	// a bad value is an error whatever the period.
	if a := p.Pulsatile.Amplitude; !(a >= 0 && a <= 2) {
		return fmt.Errorf("lbm: pulsatile amplitude %g outside [0, 2]", a)
	}
	if p.Pulsatile.Period > 0 {
		if peak := p.UMax * (1 + p.Pulsatile.Amplitude); peak > 0.3 {
			return fmt.Errorf("lbm: peak pulsatile velocity %g exceeds 0.3", peak)
		}
	}
	return nil
}

// Viscosity returns the kinematic viscosity in lattice units.
func (p Params) Viscosity() float64 { return (p.Tau - 0.5) / 3 }
