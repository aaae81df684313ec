// Package unitsuffixclean holds unitflow's clean naming cases, once the
// unitsuffix check's: unit-disciplined declarations it must accept.
package unitsuffixclean

// Meter is fully suffixed: the documented units appear in the names.
type Meter struct {
	BudgetUSD  float64 // maximum spend in dollars
	ElapsedUS  float64 // transfer time in microseconds
	Throughput float64 // dimensionless relative speedup
}

func sameUnit(aS, bS float64) float64 {
	return aS + bS
}

func productsMayMix(rateGBps, windowS float64) float64 {
	return rateGBps * windowS
}

func unsuffixedOperandsAreFree(count int, scale float64) float64 {
	return float64(count) * scale
}
