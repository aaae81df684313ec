//go:build race

package serve

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
