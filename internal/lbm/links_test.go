package lbm

import (
	"testing"

	"repro/internal/geometry"
)

// TestLinkRangesJoinAtAnyCut: the parts linkRange builds for consecutive
// ranges join into the table one range over every site builds, wherever
// the cuts fall — inside a run, at its first or last cell, or every few
// sites, so that one stretch runs across several whole ranges. NewSparse
// cuts at ForRanges' seams, at least SetupFloor sites apart; this cuts far
// closer.
func TestLinkRangesJoinAtAnyCut(t *testing.T) {
	for _, c := range []struct {
		name string
		dom  func() (*geometry.Domain, error)
		p    Params
	}{
		{"cylinder", func() (*geometry.Domain, error) { return geometry.Cylinder(24, 6) }, Params{Tau: 0.9, UMax: 0.02}},
		{"periodic-cylinder", func() (*geometry.Domain, error) { return geometry.Cylinder(24, 6) }, Params{Tau: 0.9, PeriodicX: true}},
		{"aorta", func() (*geometry.Domain, error) { return geometry.Aorta(4) }, Params{Tau: 0.9, UMax: 0.02}},
	} {
		dom, err := c.dom()
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLattice(dom, c.p)
		if err != nil {
			t.Fatal(err)
		}
		whole := joinLinks([]*LinkBuilder{l.linkRange(0, l.n)})
		if len(whole.runs) == 0 {
			t.Fatalf("%s: no runs to cut", c.name)
		}
		for _, step := range []int{1, 2, 3, 5, 8, 13, 50, l.n / 3} {
			var parts []*LinkBuilder
			for lo := 0; lo < l.n; lo += step {
				parts = append(parts, l.linkRange(lo, min(lo+step, l.n)))
			}
			if got := joinLinks(parts); !SameLinks(&got, &whole) {
				t.Errorf("%s: cut every %d sites, the parts join into %d runs and %d rows; one range builds %d and %d",
					c.name, step, len(got.runs), len(got.rows)/NQ, len(whole.runs), len(whole.rows)/NQ)
			}
		}
	}
}
