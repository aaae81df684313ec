package core

// Calibrations returns how many generalized-model fits the package's
// anatomies have run, for tests outside the package.
func Calibrations() int64 { return calibrations.Load() }
