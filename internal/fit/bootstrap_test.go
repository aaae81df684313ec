package fit

import (
	"math"
	"math/rand"
	"testing"
)

func TestBootstrapTwoLineRecoversTruthWithinError(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	truth := TwoLine{A1: 7790, A2: 1264, A3: 9}
	var threads, bw []float64
	for n := 1; n <= 36; n++ {
		threads = append(threads, float64(n))
		bw = append(bw, truth.Eval(float64(n))*(1+rng.NormFloat64()*0.02))
	}
	u, err := BootstrapTwoLine(threads, bw, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if u.Resamples < 100 {
		t.Fatalf("only %d usable resamples", u.Resamples)
	}
	// The truth lies within a few standard errors of the bootstrap mean.
	if d := math.Abs(u.A1.Mean - truth.A1); d > 5*u.A1.StdErr+0.02*truth.A1 {
		t.Errorf("a1 %v too far from truth %v", u.A1, truth.A1)
	}
	if u.A1.StdErr <= 0 || u.A3.StdErr <= 0 {
		t.Error("noisy data must yield positive standard errors")
	}
	// Error bars are small relative to the parameter (informative fit).
	if u.A1.StdErr > 0.2*truth.A1 {
		t.Errorf("a1 stderr %v implausibly wide", u.A1.StdErr)
	}
}

func TestBootstrapValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BootstrapTwoLine([]float64{1, 2, 3}, []float64{1, 2, 3}, 100, rng); err == nil {
		t.Error("want error for too few points")
	}
	xs := []float64{1, 2, 3, 4, 5}
	if _, err := BootstrapTwoLine(xs, xs, 5, rng); err == nil {
		t.Error("want error for too few resamples")
	}
	if _, err := BootstrapTwoLine(xs, xs, 100, nil); err == nil {
		t.Error("want error for nil rng")
	}
}

func TestUncertaintyString(t *testing.T) {
	u := Uncertainty{Mean: 7790.02, StdErr: 45.3}
	if got := u.String(); got != "7790 ± 45" {
		t.Errorf("String() = %q", got)
	}
}

func TestSummarizeUSingle(t *testing.T) {
	u := summarizeU([]float64{3.5})
	if u.Mean != 3.5 || u.StdErr != 0 {
		t.Errorf("single-sample uncertainty: %+v", u)
	}
}
