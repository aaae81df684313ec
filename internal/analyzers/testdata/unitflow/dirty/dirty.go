// Package unitflowdirty is the golden dirty fixture for the unitflow
// check: one numbered site per finding family, each reachable only
// through type-aware propagation (testdata/unitsuffix holds the cases
// a suffix comparison alone catches).
package unitflowdirty

// Sample is a record whose field suffix and doc comment disagree.
type Sample struct {
	// WindowMS is the averaging window in seconds.
	WindowMS float64
}

// Budget is the destination of the composite-literal contradiction.
type Budget struct {
	CapUSD float64
}

func mixDims(latencyS, payloadBytes float64) float64 {
	wait := latencyS
	return wait + payloadBytes
}

func mixScales(totalS, sliceMS float64) float64 {
	t := totalS
	return t - sliceMS
}

func storeWrongDim(latencyUS float64) float64 {
	var budgetUSD float64
	budgetUSD = latencyUS
	return budgetUSD
}

func storeRatio(baseS, optS float64) float64 {
	ratioS := baseS / optS
	return ratioS
}

func storeProduct(spanS float64) float64 {
	totalS := spanS * spanS
	return totalS
}

func accumulate(totalBytes, extraMS float64) float64 {
	totalBytes += extraMS
	return totalBytes
}

func build(costS float64) Budget {
	return Budget{CapUSD: costS}
}

func bill(amountUSD float64) float64 {
	return amountUSD
}

func callSite(elapsedS float64) float64 {
	return bill(elapsedS)
}

func waitUS(napS float64) float64 {
	return napS
}
