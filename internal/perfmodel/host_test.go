package perfmodel

import "testing"

func TestCharacterizeHost(t *testing.T) {
	c, err := CharacterizeHost(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.System != "host" || c.TotalCores < 1 {
		t.Fatalf("host identity wrong: %+v", c)
	}
	// The fitted bandwidth at one thread is a plausible machine number.
	if bw := c.Mem.Eval(1); bw < 100 || bw > 1e9 {
		t.Errorf("implausible host bandwidth %v MB/s", bw)
	}
	// Both fit branches report the fit's R² in the model and in
	// FitQuality; with fewer than 3 threads the single-slope branch runs.
	if c.Mem.R2 != c.FitQuality.MemR2 {
		t.Errorf("c.Mem.R2 = %v, FitQuality.MemR2 = %v", c.Mem.R2, c.FitQuality.MemR2)
	}
	if c.Intra.LatencyUS <= 0 || c.Intra.BandwidthMBps <= 0 {
		t.Errorf("host link degenerate: %+v", c.Intra)
	}
	if len(c.RawIntra) == 0 || len(c.RawInter) == 0 {
		t.Error("raw sweeps missing")
	}
	if !sweepSorted(c.RawIntra) || !sweepSorted(c.RawInter) {
		t.Errorf("host sweeps not sorted by size: %v", c.RawIntra)
	}
	// The wrapped system is usable by the simulator's placement logic.
	sys := HostSystem(c)
	if sys.MaxRanks() != c.TotalCores || sys.PricePerNodeHourUSD != 0 {
		t.Errorf("host system wrap wrong: %+v", sys)
	}
	if sys.JobCost(1, 3600) != 0 {
		t.Error("the machine you own should not bill")
	}
}

func TestCharacterizeHostValidation(t *testing.T) {
	if _, err := CharacterizeHost(0, 1); err == nil {
		t.Error("want error for an empty working set")
	}
}
