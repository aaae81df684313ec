package obs

import (
	"fmt"
	"sort"
)

// TelemetrySnapshot is the wire form of one process's metric state, as
// served by `GET /v1/telemetry` on a serve replica and scraped by the
// cluster router. It carries raw mergeable state — counter sums and
// histogram buckets, never pre-computed quantiles — so fleet-wide
// aggregation stays exact (bucket counts add; p99s don't).
type TelemetrySnapshot struct {
	// Source names the emitting process (replica name); the scraper
	// fills it in when the emitter leaves it empty.
	Source string `json:"source,omitempty"`
	// UptimeS is the emitter's process uptime in seconds.
	UptimeS float64  `json:"uptime_s"`
	Metrics []Metric `json:"metrics"`
}

// metricKey mirrors the registry's internal identity (name + canonical
// label string) so merged output sorts exactly like Registry.Snapshot.
func metricKey(m Metric) string {
	_, canon := canonLabels(m.Labels)
	return m.Name + "\x02" + canon
}

// MergeMetrics folds src into dst and returns the merged slice, sorted
// by name then canonical labels (the Snapshot order). Counters and
// gauges with the same identity sum; histograms sum bucket counts and
// require identical bounds. Identity collisions across metric types,
// and histogram bucket-layout mismatches, are errors; on error dst is
// returned unmodified (validation happens before any fold, so a bad
// source never half-applies). Inputs are not mutated — merged metrics
// deep-copy their slices.
func MergeMetrics(dst, src []Metric) ([]Metric, error) {
	idx := make(map[string]int, len(dst))
	merged := make([]Metric, len(dst))
	for i, m := range dst {
		merged[i] = copyMetric(m)
		idx[metricKey(m)] = i
	}

	// Validate the whole source against the (copied) destination first:
	// a rejected snapshot must leave the aggregate untouched.
	for _, m := range src {
		i, ok := idx[metricKey(m)]
		if !ok {
			continue
		}
		d := merged[i]
		if d.Type != m.Type {
			return dst, fmt.Errorf("obs: merging %q as %s into %s", m.Name, m.Type, d.Type)
		}
		if m.Type == "histogram" {
			if err := checkBounds(d, m); err != nil {
				return dst, err
			}
		}
	}

	for _, m := range src {
		i, ok := idx[metricKey(m)]
		if !ok {
			idx[metricKey(m)] = len(merged)
			merged = append(merged, copyMetric(m))
			continue
		}
		d := &merged[i]
		switch m.Type {
		case "histogram":
			for j, c := range m.Counts {
				d.Counts[j] += c
			}
			d.Sum += m.Sum
			d.Count += m.Count
		default:
			d.Value += m.Value
		}
	}

	sort.Slice(merged, func(i, j int) bool {
		return metricKey(merged[i]) < metricKey(merged[j])
	})
	return merged, nil
}

// checkBounds verifies two histogram metrics share a bucket layout.
func checkBounds(d, m Metric) error {
	if len(d.BucketLE) != len(m.BucketLE) || len(d.Counts) != len(m.Counts) {
		return fmt.Errorf("obs: merging %q histograms with %d vs %d buckets", m.Name, len(m.BucketLE), len(d.BucketLE))
	}
	for j, b := range m.BucketLE {
		if b != d.BucketLE[j] {
			return fmt.Errorf("obs: merging %q histograms with different bounds at bucket %d (%g vs %g)", m.Name, j, b, d.BucketLE[j])
		}
	}
	return nil
}

// copyMetric deep-copies the slice-valued fields so merging never
// aliases (and never mutates) a caller's snapshot.
func copyMetric(m Metric) Metric {
	m.Labels = append([]Label(nil), m.Labels...)
	m.BucketLE = append([]float64(nil), m.BucketLE...)
	m.Counts = append([]uint64(nil), m.Counts...)
	return m
}
