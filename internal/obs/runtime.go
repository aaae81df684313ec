package obs

import "runtime/metrics"

// runtimeSamples are the runtime/metrics readings behind RuntimeMetrics.
var runtimeSamples = [...]string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/sched/goroutines:goroutines",
	"/cpu/classes/gc/pause:cpu-seconds",
}

// RuntimeMetrics reads the Go runtime's gauges now, in Snapshot order:
//
//	go_gc_pause_cpu_seconds  CPU time all Ps have spent stopped for GC
//	go_goroutines            live goroutines
//	go_heap_inuse_bytes      heap spans in use: objects plus their free slots
//
// Each is a plain gauge, so fleet aggregation (MergeMetrics) sums them
// over processes like any other. Callers read them on request; nothing
// polls in the background.
func RuntimeMetrics() []Metric {
	var s [len(runtimeSamples)]metrics.Sample
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s[:])
	value := func(i int) float64 {
		switch v := s[i].Value; v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0 // not supported by this runtime
	}
	return []Metric{
		{Name: "go_gc_pause_cpu_seconds", Type: "gauge", Value: value(3)},
		{Name: "go_goroutines", Type: "gauge", Value: value(2)},
		{Name: "go_heap_inuse_bytes", Type: "gauge", Value: value(0) + value(1)},
	}
}
