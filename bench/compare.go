package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge applies a metric's direction and bound to a baseline a and a
// candidate b, on the values a run reports (the best repetitions). Worse by
// more than the bound is a regression. Otherwise, where either side's
// interquartile range is wider than the bound, the pair is unresolved, not
// unchanged, unless every repetition of b reads better than every one of
// a. Otherwise better by more than the bound is an improvement.
func judge(m metricDef, a, b summary) verdict {
	va, vb := a.value(m), b.value(m)
	if a.N == 0 || b.N == 0 || va <= 0 {
		return unresolved
	}
	sign := 1.0 // worse = larger
	allBetter := b.Max < a.Min
	if m.Better == "higher" {
		sign = -1
		allBetter = b.Min > a.Max
	}
	worse := sign * (vb - va) / va
	spread := max(a.Q3-a.Q1, b.Q3-b.Q1) / a.Median
	switch {
	case worse > m.Bound:
		return regressed
	case spread > m.Bound && allBetter:
		return improved
	case spread > m.Bound:
		return unresolved
	case worse < -m.Bound:
		return improved
	}
	return unchanged
}

func loadResult(path string) (suiteResult, error) {
	var r suiteResult
	doc, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(doc, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per workload with a verdict per end-to-end
// metric, under the baseline file's bounds, and reports whether anything
// regressed or fails more often than before.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b), nil
}

func compareResults(w io.Writer, a, b suiteResult) bool {
	byName := make(map[string]workloadResult, len(b.Workloads))
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-16s", "workload")
	for _, m := range a.EndToEnd {
		fmt.Fprintf(w, " %-18s", m.Name)
	}
	fmt.Fprintf(w, " %s\n", "fail_frac")
	bad := false
	counts := map[verdict]int{}
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from the second file\n", ra.Workload)
			bad = true
			continue
		}
		fmt.Fprintf(w, "%-16s", ra.Workload)
		for _, m := range a.EndToEnd {
			sa, sb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v := judge(m, sa, sb)
			counts[v]++
			bad = bad || v == regressed
			change := 0.0
			if va := sa.value(m); va > 0 {
				change = 100 * (sb.value(m) - va) / va
			}
			fmt.Fprintf(w, " %-18s", fmt.Sprintf("%s %+.1f%%", v, change))
		}
		// fail_frac has an absolute bound: a thousandth more failures.
		fmt.Fprintf(w, " %.4g -> %.4g", ra.FailFrac, rb.FailFrac)
		if rb.FailFrac > ra.FailFrac+0.001 || (ra.Correct && !rb.Correct) {
			fmt.Fprint(w, " WORSE")
			bad = true
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "improved %d, unchanged %d, regressed %d, unresolved %d\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	return bad
}
