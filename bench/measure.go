package main

import (
	"sort"
	"time"
)

// measure times f for the ladders. After one untimed call it runs up to
// nine batches that together fill budget (at least three, however long one
// call takes) and returns the median batch mean and the heap allocations
// per call. A median of batch means shrugs off the odd preempted batch on
// a shared host, where a plain mean would not.
func measure(budget time.Duration, f func()) (perCall time.Duration, allocs float64) {
	start := time.Now()
	f()
	once := max(time.Since(start), time.Nanosecond)
	const batches = 9
	n := max(int(budget/batches/once), 1)
	means := make([]time.Duration, 0, batches) // sized now: the harness must not allocate in the count
	calls := 0
	m0 := mallocs()
	for b := 0; b < batches && (b < 3 || time.Since(start) < budget); b++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		means = append(means, time.Since(t)/time.Duration(n))
		calls += n
	}
	allocs = float64(mallocs()-m0) / float64(calls)
	sort.Slice(means, func(i, j int) bool { return means[i] < means[j] })
	return means[len(means)/2], allocs
}

// timed runs f once and returns how long it took.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

func medianDuration(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
