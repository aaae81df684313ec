package lbm

import (
	"math"
	"testing"

	"repro/internal/fit"
	"repro/internal/geometry"
)

func TestCollisionOpString(t *testing.T) {
	if BGK.String() != "BGK" || TRT.String() != "TRT" {
		t.Error("collision operator names wrong")
	}
}

func TestValidateCollision(t *testing.T) {
	bad := Params{Tau: 0.9, Collision: CollisionOp(9)}
	if err := bad.Validate(); err == nil {
		t.Error("want error for unknown collision operator")
	}
	good := Params{Tau: 0.9, Collision: TRT}
	if err := good.Validate(); err != nil {
		t.Errorf("TRT params rejected: %v", err)
	}
}

func TestCollideCellConservation(t *testing.T) {
	// Both operators conserve mass and (without forcing) momentum.
	for _, op := range []CollisionOp{BGK, TRT} {
		var cell [NQ]float64
		Equilibrium(1.05, 0.02, -0.01, 0.005, &cell)
		cell[3] += 0.01 // perturb off equilibrium
		cell[8] -= 0.004
		rho0, ux0, uy0, uz0 := Moments(&cell)
		work := cell
		CollideCell(&work, Params{Tau: 0.8, Collision: op}, 0, 0, 0)
		rho1, ux1, uy1, uz1 := Moments(&work)
		if math.Abs(rho1-rho0) > 1e-14 {
			t.Errorf("%v: mass not conserved: %v -> %v", op, rho0, rho1)
		}
		for _, d := range []float64{ux1 - ux0, uy1 - uy0, uz1 - uz0} {
			if math.Abs(d) > 1e-13 {
				t.Errorf("%v: momentum not conserved (delta %v)", op, d)
			}
		}
	}
}

func TestCollideCellEquilibriumIsFixedPoint(t *testing.T) {
	for _, op := range []CollisionOp{BGK, TRT} {
		var cell [NQ]float64
		Equilibrium(1, 0.03, 0.01, -0.02, &cell)
		work := cell
		CollideCell(&work, Params{Tau: 0.9, Collision: op}, 0, 0, 0)
		for q := 0; q < NQ; q++ {
			if math.Abs(work[q]-cell[q]) > 1e-14 {
				t.Fatalf("%v: equilibrium not a fixed point at q=%d", op, q)
			}
		}
	}
}

func TestTRTPoiseuilleViscosity(t *testing.T) {
	// TRT with the magic parameter must recover the analytic Poiseuille
	// curvature at least as accurately as BGK.
	const g = 2e-6
	run := func(op CollisionOp) float64 {
		dom, err := geometry.Cylinder(8, 6)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSparse(dom, Params{Tau: 0.9, PeriodicX: true,
			Force: [3]float64{g, 0, 0}, Collision: op})
		if err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		for i := 0; i < 300; i++ {
			s.Run(100)
			var umax float64
			for si := 0; si < s.N(); si++ {
				_, ux, _, _ := s.Macro(si)
				umax = math.Max(umax, ux)
			}
			if math.Abs(umax-prev) < 1e-12 {
				break
			}
			prev = umax
		}
		cy := float64(dom.NY-1) / 2
		cz := float64(dom.NZ-1) / 2
		var r2s, us []float64
		for si := 0; si < s.N(); si++ {
			x, y, z := s.SiteCoords(si)
			if x != dom.NX/2 {
				continue
			}
			dy, dz := float64(y)-cy, float64(z)-cz
			if dy*dy+dz*dz > 4.5*4.5 {
				continue
			}
			_, ux, _, _ := s.Macro(si)
			r2s = append(r2s, dy*dy+dz*dz)
			us = append(us, ux)
		}
		line, err := fit.LinearLSQ(r2s, us)
		if err != nil {
			t.Fatal(err)
		}
		nuFit := -g / (4 * line.Slope)
		return math.Abs(nuFit-s.Params().Viscosity()) / s.Params().Viscosity()
	}
	bgkErr := run(BGK)
	trtErr := run(TRT)
	if trtErr > 0.05 {
		t.Errorf("TRT viscosity error %v above 5%%", trtErr)
	}
	if trtErr > bgkErr*1.5 {
		t.Errorf("TRT (%v) markedly worse than BGK (%v)", trtErr, bgkErr)
	}
}

func TestTRTStableAtLowViscosity(t *testing.T) {
	// Near tau = 0.5 BGK develops oscillations; TRT's magic parameter
	// keeps the run bounded. Only stability is asserted, not accuracy.
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSparse(dom, Params{Tau: 0.51, PeriodicX: true,
		Force: [3]float64{1e-6, 0, 0}, Collision: TRT})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(400)
	if v := s.MaxSpeed(); math.IsNaN(v) || v > 0.5 {
		t.Errorf("TRT unstable at tau=0.51: max speed %v", v)
	}
}

func TestTRTInletFlowStable(t *testing.T) {
	dom, err := geometry.Cylinder(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Tau: 0.9, UMax: 0.02, Collision: TRT}
	s, err := NewSparse(dom, p)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	if v := s.MaxSpeed(); v > 0.1 {
		t.Fatalf("TRT inlet flow unstable: %v", v)
	}
}

func TestProxyRejectsTRT(t *testing.T) {
	_, err := NewProxy(KernelConfig{Layout: AOS, Pattern: AB}, 10, 4,
		Params{Tau: 0.9, Collision: TRT})
	if err == nil {
		t.Error("proxy should reject TRT")
	}
}
