package monitor

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fit"
)

func sample(t float64, mflups float64) Sample {
	return Sample{TimeS: t, Workload: "aorta", System: "CSP-2", Ranks: 36, MFLUPS: mflups}
}

func TestAddValidation(t *testing.T) {
	var st Store
	if err := st.Add(Sample{TimeS: 1, Workload: "a", System: "s", MFLUPS: 0}); err == nil {
		t.Error("want error for zero MFLUPS")
	}
	if err := st.Add(Sample{TimeS: 1, MFLUPS: 5}); err == nil {
		t.Error("want error for missing identity")
	}
	if err := st.Add(sample(10, 50)); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(sample(5, 50)); err == nil {
		t.Error("want error for time going backwards")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
}

func TestSeriesAndConfigurations(t *testing.T) {
	var st Store
	for i := 0; i < 5; i++ {
		if err := st.Add(sample(float64(i), 50+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	other := Sample{TimeS: 10, Workload: "cyl", System: "TRC", Ranks: 8, MFLUPS: 99}
	if err := st.Add(other); err != nil {
		t.Fatal(err)
	}
	if got := st.Series("aorta", "CSP-2", 36); len(got) != 5 {
		t.Errorf("series has %d samples, want 5", len(got))
	}
	if got := st.Series("aorta", "CSP-2", 8); len(got) != 0 {
		t.Error("wrong-rank series should be empty")
	}
	if got := st.Configurations(); len(got) != 2 {
		t.Errorf("configurations = %v, want 2 entries", got)
	}
}

func TestBaseline(t *testing.T) {
	var st Store
	for i, v := range []float64{50, 52, 48, 50} {
		if err := st.Add(sample(float64(i), v)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := st.Baseline("aorta", "CSP-2", 36)
	if err != nil {
		t.Fatal(err)
	}
	if b.Mean != 50 {
		t.Errorf("baseline mean %v, want 50", b.Mean)
	}
	if _, err := st.Baseline("nope", "CSP-2", 36); err == nil {
		t.Error("want error for unknown configuration")
	}
}

func TestDetectRegressions(t *testing.T) {
	var st Store
	// Stable history around 50 with sd ~1, then a crash to 30.
	hist := []float64{50, 51, 49, 50.5, 49.5, 50, 51, 49}
	for i, v := range hist {
		if err := st.Add(sample(float64(i), v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Add(sample(100, 30)); err != nil {
		t.Fatal(err)
	}
	regs, err := st.DetectRegressions(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("detected %d regressions, want 1", len(regs))
	}
	r := regs[0]
	if r.LatestMFLUPS != 30 || math.Abs(r.BaselineMFLUPS-50) > 0.5 {
		t.Errorf("regression fields wrong: %+v", r)
	}
	if r.Sigmas < 3 {
		t.Errorf("sigmas %v, want > 3", r.Sigmas)
	}
}

func TestDetectRegressionsNoFalsePositive(t *testing.T) {
	var st Store
	for i, v := range []float64{50, 51, 49, 50.5, 49.5, 50.2} {
		if err := st.Add(sample(float64(i), v)); err != nil {
			t.Fatal(err)
		}
	}
	regs, err := st.DetectRegressions(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("false positive: %+v", regs)
	}
}

func TestDetectRegressionsValidation(t *testing.T) {
	var st Store
	if _, err := st.DetectRegressions(1, 3); err == nil {
		t.Error("want error for tiny history requirement")
	}
	if _, err := st.DetectRegressions(3, 0); err == nil {
		t.Error("want error for zero threshold")
	}
}

// TestSaveLoadRoundTrip: the one on-disk format round-trips every field,
// the tier included, and a file written before the field existed loads
// as Tier 1.
func TestSaveLoadRoundTrip(t *testing.T) {
	var st Store
	want := []Sample{
		{TimeS: 1, Workload: "aorta", System: "CSP-2", Model: "direct", Ranks: 36, MFLUPS: 80, Predicted: 100, CostUSD: 0.5},
		{TimeS: 2, Workload: "cyl", System: "TRC", Model: "generalized", Tier: "tier0", Ranks: 80, MFLUPS: 55, Predicted: 60, WaitS: 3},
		{TimeS: 3, Workload: "cyl", System: "TRC", Model: "measured", Tier: "tier2", Ranks: 80, MFLUPS: 55, Predicted: 56},
		{TimeS: 4, Workload: "cyl", System: "TRC", Ranks: 80, MFLUPS: 54},
	}
	for _, s := range want {
		if err := st.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"tier"`); n != 2 {
		t.Errorf("%d samples serialized a tier, want 2 (Tier 1 is omitted):\n%s", n, buf.String())
	}
	var got Store
	if err := got.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(want) {
		t.Fatalf("loaded %d samples, want %d", got.Len(), len(want))
	}
	for i, s := range got.samples {
		if s != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, s, want[i])
		}
	}
	if a, b := got.Correction("CSP-2", "direct", 36), st.Correction("CSP-2", "direct", 36); a != b || a != 0.8 {
		t.Errorf("correction after reload = %v, before %v, want 0.8", a, b)
	}

	legacy := `[{"time":58.9,"workload":"fleet-b","system":"CSP-2 Small","model":"direct","ranks":8,
		"mflups":80,"predicted_mflups":100,"cost_usd":0.000001}]`
	var old Store
	if err := old.Load(strings.NewReader(legacy)); err != nil {
		t.Fatal(err)
	}
	if c := old.Correction("CSP-2 Small", "direct", 8); math.Abs(c-0.8) > 1e-12 {
		t.Errorf("legacy sample correction = %v, want 0.8 (no tier field means Tier 1)", c)
	}
}

// The three reference functions are Series, Configurations and Render
// as they stood before the grouping pass: rescan every sample and rebuild
// its key for every configuration.
func referenceSeries(st *Store, key string) []Sample {
	var out []Sample
	for _, s := range st.samples {
		if s.Key() == key {
			out = append(out, s)
		}
	}
	return out
}

func referenceConfigurations(st *Store) []string {
	seen := map[string]bool{}
	var keys []string
	for _, s := range st.samples {
		if !seen[s.Key()] {
			seen[s.Key()] = true
			keys = append(keys, s.Key())
		}
	}
	sort.Strings(keys)
	return keys
}

func referenceRender(st *Store) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %8s %12s %10s %12s\n",
		"configuration", "samples", "mean MFLUPS", "cv", "latest")
	for _, key := range referenceConfigurations(st) {
		series := referenceSeries(st, key)
		vals := make([]float64, len(series))
		for i, s := range series {
			vals[i] = s.MFLUPS
		}
		sum := fit.Summarize(vals)
		fmt.Fprintf(&b, "%-40s %8d %12.2f %10.3f %12.2f\n",
			key, sum.N, sum.Mean, sum.CV, series[len(series)-1].MFLUPS)
	}
	return b.String()
}

// TestGroupingMatchesKeyScan checks the one grouping pass against the
// per-configuration key scan it replaced, on names that need escaping.
func TestGroupingMatchesKeyScan(t *testing.T) {
	var st Store
	names := []string{"a|b", "a", `a\`, `a\|b`, "plain"}
	systems := []string{"c", "b|c", `\b`, `|`}
	ts := 0.0
	for round := 0; round < 3; round++ {
		for i, w := range names {
			for _, sys := range systems {
				ts++
				s := Sample{TimeS: ts, Workload: w, System: sys, Ranks: 4 << (i % 2), MFLUPS: 50 + ts}
				if err := st.Add(s); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	keys, want := st.Configurations(), referenceConfigurations(&st)
	if len(want) != len(names)*len(systems) || !reflect.DeepEqual(keys, want) {
		t.Fatalf("configurations = %q, want %q", keys, want)
	}
	for _, key := range want {
		series := referenceSeries(&st, key)
		id := series[0]
		if got := st.Series(id.Workload, id.System, id.Ranks); len(series) != 3 || !reflect.DeepEqual(got, series) {
			t.Errorf("series %q = %+v, want %+v", key, got, series)
		}
		if base, err := st.Baseline(id.Workload, id.System, id.Ranks); err != nil || base.N != 3 {
			t.Errorf("baseline of %q = %+v, %v", key, base, err)
		}
	}
	if got := st.Series("a", "c", 4); got != nil {
		t.Errorf("series of an unseen configuration = %+v, want nil", got)
	}
	if got, want := st.Render(), referenceRender(&st); got != want {
		t.Errorf("render differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRender(t *testing.T) {
	var st Store
	for i := 0; i < 3; i++ {
		if err := st.Add(sample(float64(i), 50+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	out := st.Render()
	for _, want := range []string{"aorta|CSP-2|36", "mean MFLUPS", "51.00", "52.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestAddRejectsNonFinite is the regression test for the NaN guard:
// every NaN comparison is false, so NaN MFLUPS sailed through the old
// `<= 0` validation and poisoned every downstream mean and sigma.
func TestAddRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		s    Sample
	}{
		{"NaN MFLUPS", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: math.NaN()}},
		{"+Inf MFLUPS", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: math.Inf(1)}},
		{"NaN time", Sample{TimeS: math.NaN(), Workload: "a", System: "s", Ranks: 4, MFLUPS: 5}},
		{"NaN predicted", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: 5, Predicted: math.NaN()}},
		{"-Inf cost", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: 5, CostUSD: math.Inf(-1)}},
		{"NaN wait", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: 5, WaitS: math.NaN()}},
	}
	for _, tc := range cases {
		var st Store
		if err := st.Add(tc.s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: error %q does not name the non-finite field", tc.name, err)
		}
		if st.Len() != 0 {
			t.Errorf("%s: rejected sample was stored", tc.name)
		}
	}
}

// TestKeyEscaping is the regression test for the ambiguous key join:
// workload "a|b" system "c" and workload "a" system "b|c" rendered the
// same "a|b|c|ranks" key, merging two configurations' series.
func TestKeyEscaping(t *testing.T) {
	var st Store
	first := Sample{TimeS: 1, Workload: "a|b", System: "c", Ranks: 4, MFLUPS: 10}
	second := Sample{TimeS: 2, Workload: "a", System: "b|c", Ranks: 4, MFLUPS: 20}
	if first.Key() == second.Key() {
		t.Fatalf("keys collide: %q", first.Key())
	}
	for _, s := range []Sample{first, second} {
		if err := st.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Series("a|b", "c", 4); len(got) != 1 || got[0].MFLUPS != 10 {
		t.Errorf("series for workload a|b = %v, want the single 10-MFLUPS sample", got)
	}
	if got := st.Series("a", "b|c", 4); len(got) != 1 || got[0].MFLUPS != 20 {
		t.Errorf("series for system b|c = %v, want the single 20-MFLUPS sample", got)
	}
	if got := len(st.Configurations()); got != 2 {
		t.Errorf("configurations = %d, want 2 distinct", got)
	}
	// Backslashes in names must not manufacture collisions either.
	esc1 := Sample{Workload: `a\`, System: `b`}
	esc2 := Sample{Workload: `a`, System: `\b`}
	if esc1.Key() == esc2.Key() {
		t.Errorf("backslash keys collide: %q", esc1.Key())
	}
}
