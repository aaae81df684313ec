package fit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d, want 8", s.N)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev, want)
	}
	if math.Abs(s.CV-want/5) > 1e-12 {
		t.Errorf("CV = %v, want %v", s.CV, want/5)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.StdDev != 0 || s.CV != 0 || s.Median != 3 {
		t.Errorf("single-sample summary wrong: %+v", s)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Errorf("Median = %v, want 5", s.Median)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on empty sample")
		}
	}()
	Summarize(nil)
}

func TestMeanProperty(t *testing.T) {
	// Mean of constant slice is the constant.
	f := func(c float64, n uint8) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e100 {
			return true // summing ~32 values near ±MaxFloat64 overflows
		}
		m := int(n%32) + 1
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = c
		}
		return math.Abs(Mean(xs)-c) <= 1e-9*math.Max(1, math.Abs(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSSEAndMAPE(t *testing.T) {
	pred := []float64{10, 20, 30}
	obs := []float64{12, 20, 27}
	if got := SSE(pred, obs); got != 4+0+9 {
		t.Errorf("SSE = %v, want 13", got)
	}
	wantMAPE := (2.0/12 + 0 + 3.0/27) / 3
	if got := MAPE(pred, obs); math.Abs(got-wantMAPE) > 1e-12 {
		t.Errorf("MAPE = %v, want %v", got, wantMAPE)
	}
}

func TestMAPESkipsZeroObs(t *testing.T) {
	got := MAPE([]float64{5, 10}, []float64{0, 10})
	if got != 0 {
		t.Errorf("MAPE = %v, want 0 (zero obs skipped, exact match kept)", got)
	}
}

func TestSSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for length mismatch")
		}
	}()
	SSE([]float64{1}, []float64{1, 2})
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for nonpositive value")
		}
	}()
	GeoMean([]float64{1, -2})
}
