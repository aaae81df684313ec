package lbm

import "testing"

// TestThreadedProxyMatchesSerial verifies that a pass split across
// threads is bitwise the serial pass for every variant — the hazard
// analysis of SetThreads, checked — at an odd step count and an even one.
func TestThreadedProxyMatchesSerial(t *testing.T) {
	const nx, r, g = 12, 5.0, 1e-5
	for _, cfg := range kernels {
		serial, err := NewProxy(cfg, nx, r, proxyParams(g))
		if err != nil {
			t.Fatal(err)
		}
		threaded, err := NewProxy(cfg, nx, r, proxyParams(g))
		if err != nil {
			t.Fatal(err)
		}
		threaded.SetThreads(4)
		for _, steps := range []int{23, 1} {
			serial.Run(steps)
			threaded.Run(steps)
			for si := 0; si < serial.N(); si++ {
				if serial.Cell(si) != threaded.Cell(si) {
					t.Fatalf("%v: threaded run diverges from serial at site %d after %d steps", cfg, si, serial.Steps())
				}
			}
		}
	}
}

func TestSetThreadsClamp(t *testing.T) {
	p, err := NewProxy(KernelConfig{Layout: AOS, Pattern: AB}, 10, 4, proxyParams(0))
	if err != nil {
		t.Fatal(err)
	}
	p.SetThreads(0)
	if p.Threads() != 1 {
		t.Errorf("Threads = %d, want clamp to 1", p.Threads())
	}
	p.SetThreads(8)
	if p.Threads() != 8 {
		t.Errorf("Threads = %d, want 8", p.Threads())
	}
	// More threads than cells still runs correctly.
	p.SetThreads(1000)
	p.Run(4)
	if p.Steps() != 4 {
		t.Error("oversubscribed run failed")
	}
}

func TestThreadedMassConservation(t *testing.T) {
	p, err := NewProxy(KernelConfig{Layout: SOA, Pattern: AA, Unrolled: true}, 10, 4, proxyParams(0))
	if err != nil {
		t.Fatal(err)
	}
	p.SetThreads(4)
	m0 := p.TotalMass()
	p.Run(50)
	if d := p.TotalMass() - m0; d > 1e-10 || d < -1e-10 {
		t.Errorf("threaded mass drifted by %v", d)
	}
}
