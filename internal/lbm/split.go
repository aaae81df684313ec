package lbm

import (
	"runtime"
	"sync"
)

// SetupFloor is the fewest sites a set-up pass hands one goroutine. A
// lattice under twice as many is set up on the calling goroutine alone,
// exactly as a serial build would be.
const SetupFloor = 1 << 15

// SetupWorkers returns how many goroutines a set-up pass over the given
// number of sites runs on: one per SetupFloor sites, at most GOMAXPROCS,
// at least one.
func SetupWorkers(sites int) int {
	return max(1, min(runtime.GOMAXPROCS(0), sites/SetupFloor))
}

// ForRanges cuts [0, n) into min(workers, n) contiguous ranges in order
// and calls fn(w, lo, hi) for range w, each range on its own goroutine
// (range 0 on the caller's), and returns when every call has. With one
// range it is fn(0, 0, n) on the calling goroutine. The set-up passes
// split this way write disjoint slots per range and merge in range order,
// so what they build does not depend on the number of ranges.
func ForRanges(n, workers int, fn func(w, lo, hi int)) {
	workers = min(workers, n)
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn(w, n*w/workers, n*(w+1)/workers)
		}()
	}
	fn(0, 0, n/workers)
	wg.Wait()
}
