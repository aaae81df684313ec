package dashboard

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
)

func buildFixture(t *testing.T) (*Dashboard, perfmodel.WorkloadSummary, perfmodel.GeneralModel) {
	t.Helper()
	d, err := Build(machine.Catalog(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := geometry.Aorta(5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	m := lbm.HarveyAccess()
	g, err := perfmodel.CalibrateGeneral(s, m, []int{1, 2, 4, 8, 16, 32, 64, 128, 256}, 36)
	if err != nil {
		t.Fatal(err)
	}
	ws := perfmodel.WorkloadSummary{Name: "aorta", Points: s.N(), BytesSerial: s.BytesSerial(m)}
	return d, ws, g
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, 1, nil); err == nil {
		t.Error("want error for empty catalog")
	}
}

func TestEntryLookup(t *testing.T) {
	d, _, _ := buildFixture(t)
	if _, err := d.Entry("TRC"); err != nil {
		t.Errorf("TRC lookup failed: %v", err)
	}
	if _, err := d.Entry("nope"); err == nil {
		t.Error("want error for unknown entry")
	}
	// An entry without a predictor predicts nothing, whatever it holds.
	bare := Entry{System: d.Entries[0].System, Char: d.Entries[0].Char}
	if _, err := bare.Predict(perfmodel.Request{}); err == nil || !strings.Contains(err.Error(), "no predictor") {
		t.Errorf("entry without a predictor: %v, want a no-predictor error", err)
	}
}

func TestAssessProducesAllSystems(t *testing.T) {
	d, ws, g := buildFixture(t)
	as, err := d.AssessTier(ws, g, 2048, 10000, perfmodel.Tier1Calibrated)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != len(d.Entries) {
		t.Fatalf("assessed %d systems, want %d", len(as), len(d.Entries))
	}
	for _, a := range as {
		if a.MFLUPS <= 0 || a.Seconds <= 0 || a.USD <= 0 || a.MFLUPSPerDollarHour <= 0 {
			t.Errorf("%s: non-positive assessment %+v", a.System, a)
		}
	}
	if _, err := d.AssessTier(ws, g, 64, 0, perfmodel.Tier1Calibrated); err == nil {
		t.Error("want error for zero steps")
	}
}

func TestRelativeValueProperties(t *testing.T) {
	d, ws, g := buildFixture(t)
	as, err := d.AssessTier(ws, g, 2048, 1000, perfmodel.Tier1Calibrated)
	if err != nil {
		t.Fatal(err)
	}
	m := RelativeValue(as)
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diagonal [%d][%d] = %v, want 1", i, i, m[i][i])
		}
		for j := range m {
			// Eq. 17 reciprocity: r_{B,A} * r_{A,B} = 1.
			if p := m[i][j] * m[j][i]; math.Abs(p-1) > 1e-12 {
				t.Errorf("reciprocity violated at [%d][%d]: %v", i, j, p)
			}
		}
	}
}

func TestRelativeValueReciprocityProperty(t *testing.T) {
	f := func(m1, m2, m3 float64) bool {
		vals := []float64{math.Abs(m1) + 1, math.Abs(m2) + 1, math.Abs(m3) + 1}
		as := make([]Assessment, 3)
		for i := range as {
			as[i] = Assessment{System: string(rune('A' + i)), MFLUPS: vals[i]}
		}
		m := RelativeValue(as)
		for i := range m {
			for j := range m {
				if math.Abs(m[i][j]*m[j][i]-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecommendObjectives(t *testing.T) {
	as := []Assessment{
		{System: "fast-pricey", MFLUPS: 100, Seconds: 50, USD: 9, MFLUPSPerDollarHour: 12},
		{System: "slow-cheap", MFLUPS: 40, Seconds: 120, USD: 2, MFLUPSPerDollarHour: 30},
		{System: "middle", MFLUPS: 70, Seconds: 80, USD: 4, MFLUPSPerDollarHour: 20},
	}
	cases := []struct {
		obj  Objective
		want string
	}{
		{MaxThroughput, "fast-pricey"},
		{MinCost, "slow-cheap"},
		{MinTime, "fast-pricey"},
		{MaxValue, "slow-cheap"},
	}
	for _, c := range cases {
		got, err := Recommend(as, c.obj, 0)
		if err != nil {
			t.Fatalf("%v: %v", c.obj, err)
		}
		if got.System != c.want {
			t.Errorf("%v: recommended %s, want %s", c.obj, got.System, c.want)
		}
	}
}

func TestRecommendDeadline(t *testing.T) {
	as := []Assessment{
		{System: "fast", MFLUPS: 100, Seconds: 50, USD: 9},
		{System: "cheap", MFLUPS: 40, Seconds: 120, USD: 2},
	}
	got, err := Recommend(as, MinCost, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got.System != "fast" {
		t.Errorf("deadline-constrained min-cost picked %s, want fast", got.System)
	}
	if _, err := Recommend(as, MinCost, 10); err == nil {
		t.Error("want error when no system meets the deadline")
	}
}

func TestRecommendUnknownObjective(t *testing.T) {
	as := []Assessment{{System: "a", MFLUPS: 1}, {System: "b", MFLUPS: 2}}
	if _, err := Recommend(as, Objective(99), 0); err == nil {
		t.Error("want error for unknown objective")
	}
}

func TestECOutranksNoECOnBigJobs(t *testing.T) {
	// Figure 11's ordering: for the 2048-core aorta, CSP-2 EC > CSP-2.
	d, ws, g := buildFixture(t)
	as, err := d.AssessTier(ws, g, 2048, 100, perfmodel.Tier1Calibrated)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Assessment{}
	for _, a := range as {
		byName[a.System] = a
	}
	if byName["CSP-2 EC"].MFLUPS <= byName["CSP-2"].MFLUPS {
		t.Errorf("EC (%v) not above no-EC (%v) at 2048 cores",
			byName["CSP-2 EC"].MFLUPS, byName["CSP-2"].MFLUPS)
	}
}

func TestRenderers(t *testing.T) {
	as := []Assessment{
		{System: "TRC", Ranks: 64, MFLUPS: 50, Seconds: 100, USD: 3, MFLUPSPerDollarHour: 10},
		{System: "CSP-2", Ranks: 64, MFLUPS: 60, Seconds: 90, USD: 4, MFLUPSPerDollarHour: 9},
	}
	heat := RenderHeatmap(as, RelativeValue(as))
	if !strings.Contains(heat, "TRC") || !strings.Contains(heat, "1.0000") {
		t.Errorf("heatmap missing content:\n%s", heat)
	}
	table := RenderAssessments(as)
	if !strings.Contains(table, "MFLUPS") || !strings.Contains(table, "CSP-2") {
		t.Errorf("table missing content:\n%s", table)
	}
	// Sorted by descending throughput: CSP-2 row first.
	if strings.Index(table, "CSP-2") > strings.Index(table, "TRC") {
		t.Error("assessments not sorted by throughput")
	}
}

func TestObjectiveStrings(t *testing.T) {
	want := map[Objective]string{
		MaxThroughput: "max-throughput", MinCost: "min-cost",
		MinTime: "min-time", MaxValue: "max-value",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
	if Objective(42).String() != "Objective(42)" {
		t.Error("unknown objective string wrong")
	}
}

func TestPareto(t *testing.T) {
	as := []Assessment{
		{System: "fast-pricey", Seconds: 10, USD: 9},
		{System: "balanced", Seconds: 20, USD: 4},
		{System: "cheap-slow", Seconds: 60, USD: 1},
		{System: "dominated", Seconds: 25, USD: 5},  // beaten by balanced
		{System: "dominated2", Seconds: 60, USD: 2}, // beaten by cheap-slow
	}
	front := Pareto(as)
	if len(front) != 3 {
		t.Fatalf("frontier has %d options: %+v", len(front), front)
	}
	want := []string{"fast-pricey", "balanced", "cheap-slow"}
	for i, name := range want {
		if front[i].System != name {
			t.Errorf("frontier[%d] = %s, want %s", i, front[i].System, name)
		}
	}
	// Frontier is monotone: time increases, cost decreases.
	for i := 1; i < len(front); i++ {
		if front[i].Seconds < front[i-1].Seconds || front[i].USD > front[i-1].USD {
			t.Errorf("frontier not monotone at %d", i)
		}
	}
}

func TestParetoTies(t *testing.T) {
	// Identical options are mutually non-dominating and both survive.
	as := []Assessment{
		{System: "a", Seconds: 10, USD: 5},
		{System: "b", Seconds: 10, USD: 5},
	}
	if got := Pareto(as); len(got) != 2 {
		t.Errorf("tied options: frontier %d, want 2", len(got))
	}
	if got := Pareto(nil); got != nil {
		t.Errorf("empty input: %v", got)
	}
}

func TestParetoOnRealAssessments(t *testing.T) {
	d, ws, g := buildFixture(t)
	as, err := d.AssessTier(ws, g, 256, 1000, perfmodel.Tier1Calibrated)
	if err != nil {
		t.Fatal(err)
	}
	front := Pareto(as)
	if len(front) == 0 || len(front) > len(as) {
		t.Fatalf("frontier size %d of %d", len(front), len(as))
	}
	// The fastest and the cheapest options are always on the frontier.
	fastest, cheapest := as[0], as[0]
	for _, a := range as {
		if a.Seconds < fastest.Seconds {
			fastest = a
		}
		if a.USD < cheapest.USD {
			cheapest = a
		}
	}
	found := map[string]bool{}
	for _, a := range front {
		found[a.System] = true
	}
	if !found[fastest.System] || !found[cheapest.System] {
		t.Errorf("frontier %v missing fastest %s or cheapest %s", front, fastest.System, cheapest.System)
	}
}
