// Package unitsuffixdirty holds unitflow's naming cases, once the
// unitsuffix check's: mixed-unit arithmetic between suffixed operands
// and exported float fields whose documented unit is not in the name.
package unitsuffixdirty

// Envelope describes a job's spending envelope.
type Envelope struct {
	Limit float64 // maximum spend in dollars
	Used  float64 // dollars already committed
}

// Transfer describes one measured message.
type Transfer struct {
	Elapsed float64 // transfer time in microseconds
}

// Window is a suffixed struct used by mixFields below.
type Window struct {
	SpanMS float64
}

func mixDimensions(durS, sizeBytes float64) float64 {
	return durS + sizeBytes
}

func mixSuffixScales(totalS, latencyUS float64) bool {
	return totalS > latencyUS
}

func mixFields(w Window, durS float64) bool {
	return durS < w.SpanMS
}
