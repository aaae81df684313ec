package monitor

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
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
	if got := st.Series("cyl", "TRC", 8); len(got) != 1 || got[0] != other {
		t.Errorf("series of the other configuration = %+v, want %+v", got, other)
	}
}

// TestSaveLoadRoundTrip: the one on-disk format round-trips every field,
// the tier and the terms included, and a file written before those
// fields existed loads as Tier 1 without terms.
func TestSaveLoadRoundTrip(t *testing.T) {
	var st Store
	want := []Sample{
		{TimeS: 1, Workload: "aorta", System: "CSP-2", Model: "direct", Ranks: 36, MFLUPS: 80, Predicted: 100, CostUSD: 0.5,
			MemS: 1.5e-3, CommS: 0.5e-3},
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
	if a, b := got.Correction("CSP-2", "direct"), st.Correction("CSP-2", "direct"); a != b || a.Scalar != 0.8 {
		t.Errorf("correction after reload = %+v, before %+v, want the scalar 0.8", a, b)
	}

	legacy := `[{"time":58.9,"workload":"fleet-b","system":"CSP-2 Small","model":"direct","ranks":8,
		"mflups":80,"predicted_mflups":100,"cost_usd":0.000001}]`
	var old Store
	if err := old.Load(strings.NewReader(legacy)); err != nil {
		t.Fatal(err)
	}
	if c := old.Correction("CSP-2 Small", "direct"); math.Abs(c.Scalar-0.8) > 1e-12 || c.Terms.N != 0 {
		t.Errorf("legacy sample correction = %+v, want the scalar 0.8 (no tier field means Tier 1, no terms mean no fit)", c)
	}
}

// referenceSeries is Series as it stood before the grouping pass: a
// scan of every sample comparing escaped keys.
func referenceSeries(st *Store, key string) []Sample {
	var out []Sample
	for _, s := range st.samples {
		if s.Key() == key {
			out = append(out, s)
		}
	}
	return out
}

// TestGroupingMatchesKeyScan checks Series, which compares fields,
// against the scan over escaped keys, on names that need escaping.
func TestGroupingMatchesKeyScan(t *testing.T) {
	var st Store
	names := []string{"a|b", "a", `a\`, `a\|b`, "plain"}
	systems := []string{"c", "b|c", `\b`, `|`}
	ts := 0.0
	keys := map[string]Sample{}
	for round := 0; round < 3; round++ {
		for i, w := range names {
			for _, sys := range systems {
				ts++
				s := Sample{TimeS: ts, Workload: w, System: sys, Ranks: 4 << (i % 2), MFLUPS: 50 + ts}
				if err := st.Add(s); err != nil {
					t.Fatal(err)
				}
				keys[s.Key()] = s
			}
		}
	}
	if len(keys) != len(names)*len(systems) {
		t.Fatalf("%d distinct keys, want %d", len(keys), len(names)*len(systems))
	}
	for key, id := range keys {
		series := referenceSeries(&st, key)
		if got := st.Series(id.Workload, id.System, id.Ranks); len(series) != 3 || !reflect.DeepEqual(got, series) {
			t.Errorf("series %q = %+v, want %+v", key, got, series)
		}
	}
	if got := st.Series("a", "c", 4); got != nil {
		t.Errorf("series of an unseen configuration = %+v, want nil", got)
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
		{"+Inf memory time", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: 5, MemS: math.Inf(1)}},
		{"NaN communication time", Sample{TimeS: 1, Workload: "a", System: "s", Ranks: 4, MFLUPS: 5, CommS: math.NaN()}},
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
	// Backslashes in names must not manufacture collisions either.
	esc1 := Sample{Workload: `a\`, System: `b`}
	esc2 := Sample{Workload: `a`, System: `\b`}
	if esc1.Key() == esc2.Key() {
		t.Errorf("backslash keys collide: %q", esc1.Key())
	}
}

// FuzzStoreLoad: Load of any bytes returns an error or a store, never a
// panic, and whatever loads saves and reloads to the same samples.
func FuzzStoreLoad(f *testing.F) {
	// A file written before samples carried their prediction's terms.
	f.Add([]byte(`[{"time":58.9,"workload":"fleet-b","system":"CSP-2 Small","model":"direct","ranks":8,
		"mflups":80,"predicted_mflups":100,"cost_usd":0.000001}]`))
	f.Add([]byte(`[{"time":1,"workload":"a|b","system":"TRC","model":"direct","tier":"tier1","ranks":36,
		"mflups":80,"predicted_mflups":100,"cost_usd":0.5,"mem_s":0.0015,"comm_s":0.0005},
		{"time":2,"workload":"c","system":"TRC","tier":"tier0","ranks":4,"mflups":5,"wait_s":3}]`))
	f.Add([]byte(`[{"time":0,"workload":"w","system":"s","ranks":4,"mflups":5,"mem_s":-1}]`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st Store
		if st.Load(bytes.NewReader(data)) != nil {
			return
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var again Store
		if err := again.Load(&buf); err != nil {
			t.Fatalf("reloading a saved store: %v", err)
		}
		if !reflect.DeepEqual(again.samples, st.samples) {
			t.Fatalf("reloaded %+v, saved %+v", again.samples, st.samples)
		}
	})
}
