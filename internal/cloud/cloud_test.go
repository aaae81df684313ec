package cloud

import (
	"testing"

	"repro/internal/machine"
)

func newProvider() *Provider { return NewProvider(machine.Catalog()) }

func TestProviderLookup(t *testing.T) {
	p := newProvider()
	if _, err := p.System("CSP-2 EC"); err != nil {
		t.Errorf("known system rejected: %v", err)
	}
	if _, err := p.System("AWS"); err == nil {
		t.Error("want error for unknown system")
	}
}

func TestAdvance(t *testing.T) {
	p := newProvider()
	if err := p.Advance(21600); err != nil {
		t.Fatal(err)
	}
	if p.Clock() != 21600 {
		t.Errorf("clock = %v, want 21600", p.Clock())
	}
	if err := p.Advance(-1); err == nil {
		t.Error("want error for negative advance")
	}
}
