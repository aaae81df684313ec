// Package dashboard implements the paper's CSP Option Dashboard (Figure
// 1): characterize every candidate instance type once, tune the
// performance model to an anatomy, and present per-instance predictions —
// throughput, time to solution, cost, and the relative-value matrix
// r_{B,A} of Eq. 17 (Figure 11) — so a user can pick hardware under a
// cost, throughput, or deadline objective.
package dashboard

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/perfmodel"
)

// Entry is one characterized instance type in the dashboard. Predictor
// is its tiered prediction front door; build entries with NewEntry, or
// set it: an entry without one predicts nothing.
type Entry struct {
	System    *machine.System
	Char      *perfmodel.Characterization
	Predictor *perfmodel.Predictor
}

// NewEntry composes a dashboard row's tiered predictor: Tier 0 physics
// always, Tier 1 when a characterization is supplied, Tier 2 when a
// measured efficiency table is.
func NewEntry(sys *machine.System, char *perfmodel.Characterization, tbl *perfmodel.Table) (Entry, error) {
	backends := []perfmodel.Backend{perfmodel.NewPhysicsBackend(sys)}
	if char != nil {
		backends = append(backends, perfmodel.NewCalibratedBackend(char))
	}
	if tbl != nil {
		backends = append(backends, perfmodel.NewLookupBackend(sys.Abbrev, tbl))
	}
	p, err := perfmodel.NewPredictor(backends...)
	if err != nil {
		return Entry{}, err
	}
	return Entry{System: sys, Char: char, Predictor: p}, nil
}

// Predict routes through the entry's tiered predictor.
func (e Entry) Predict(req perfmodel.Request) (perfmodel.Prediction, error) {
	if e.Predictor == nil {
		return perfmodel.Prediction{}, fmt.Errorf("dashboard: entry %s has no predictor", e.System.Abbrev)
	}
	return e.Predictor.Predict(req)
}

// Dashboard holds phase one of the framework: all instance types
// benchmarked and fitted.
type Dashboard struct {
	Entries []Entry
}

// Build characterizes every system. samples controls microbenchmark
// averaging; rng may be nil for noiseless characterization.
func Build(systems []*machine.System, samples int, rng *rand.Rand) (*Dashboard, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("dashboard: no systems to characterize")
	}
	d := &Dashboard{}
	for _, sys := range systems {
		c, err := perfmodel.Characterize(sys, samples, rng)
		if err != nil {
			return nil, err
		}
		e, err := NewEntry(sys, c, nil)
		if err != nil {
			return nil, err
		}
		d.Entries = append(d.Entries, e)
	}
	return d, nil
}

// AttachTable rebuilds every entry's predictor with a Tier 2 backend over
// tbl, enabling TierAuto and explicit tier2 assessments on in-table
// systems.
func (d *Dashboard) AttachTable(tbl *perfmodel.Table) error {
	for i, e := range d.Entries {
		ne, err := NewEntry(e.System, e.Char, tbl)
		if err != nil {
			return err
		}
		d.Entries[i] = ne
	}
	return nil
}

// Entry returns the dashboard row for a system abbreviation.
func (d *Dashboard) Entry(abbrev string) (Entry, error) {
	for _, e := range d.Entries {
		if e.System.Abbrev == abbrev {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("dashboard: system %q not characterized", abbrev)
}

// Assessment is the dashboard's verdict for one instance type on one
// anatomy at a fixed core count.
type Assessment struct {
	System  string
	Ranks   int
	MFLUPS  float64 // generalized-model prediction
	Seconds float64 // predicted time to solution for the job's steps
	USD     float64 // predicted cost of the job
	// MFLUPSPerDollarHour is the throughput-per-price decision metric the
	// Discussion proposes ("weight these ratios by the relative cost").
	MFLUPSPerDollarHour float64
	// Provenance: which accuracy tier served the prediction, its
	// confidence band, and whether it extrapolated beyond calibration
	// or table coverage.
	Tier         string
	Confidence   perfmodel.Band
	Extrapolated bool
}

// AssessTier evaluates every characterized system for a workload at the
// given rank count and job length, using the anatomy-tuned generalized
// model at the given accuracy tier ("" or perfmodel.TierAuto picks the
// best tier each entry's predictor covers; explicit tiers fail for
// entries lacking that backend's data). Rank counts beyond an instance's
// size are allowed — the model extrapolates, exactly as Figure 11 rates
// 2048-core runs on 144-core instance types.
func (d *Dashboard) AssessTier(ws perfmodel.WorkloadSummary, g perfmodel.GeneralModel, ranks, steps int, tier string) ([]Assessment, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("dashboard: steps %d must be positive", steps)
	}
	out := make([]Assessment, 0, len(d.Entries))
	req := perfmodel.Request{Model: perfmodel.ModelGeneral, Summary: &ws, General: g, Ranks: ranks, Tier: tier}
	for _, e := range d.Entries {
		pred, err := e.Predict(req)
		if err != nil {
			return nil, fmt.Errorf("dashboard: assessing %s: %w", e.System.Abbrev, err)
		}
		seconds := pred.SecondsPerStep * float64(steps)
		nodes := (ranks + e.System.CoresPerNode - 1) / e.System.CoresPerNode
		usd := float64(nodes) * seconds / 3600 * e.System.PricePerNodeHourUSD
		hourlyPrice := float64(nodes) * e.System.PricePerNodeHourUSD
		out = append(out, Assessment{
			System:              e.System.Abbrev,
			Ranks:               ranks,
			MFLUPS:              pred.MFLUPS,
			Seconds:             seconds,
			USD:                 usd,
			MFLUPSPerDollarHour: pred.MFLUPS / hourlyPrice,
			Tier:                pred.Tier,
			Confidence:          pred.Confidence,
			Extrapolated:        pred.Extrapolated,
		})
	}
	return out, nil
}

// RelativeValue computes the Eq. 17 matrix: cell [i][j] is r_{B,A} with B
// the row system and A the column system — how many times more throughput
// row i delivers than column j. The diagonal is exactly 1.
func RelativeValue(as []Assessment) [][]float64 {
	m := make([][]float64, len(as))
	for i := range as {
		m[i] = make([]float64, len(as))
		for j := range as {
			if i == j {
				m[i][j] = 1
				continue
			}
			m[i][j] = as[i].MFLUPS / as[j].MFLUPS
		}
	}
	return m
}

// Objective selects what the recommendation optimizes.
type Objective int

// Available objectives.
const (
	MaxThroughput Objective = iota // highest predicted MFLUPS
	MinCost                        // lowest predicted dollars for the job
	MinTime                        // shortest predicted time to solution
	MaxValue                       // highest throughput per dollar-hour
)

// ParseObjective maps a config/API string to an Objective. The empty
// string selects MaxValue, the throughput-per-dollar default.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "max-throughput":
		return MaxThroughput, nil
	case "min-cost":
		return MinCost, nil
	case "min-time":
		return MinTime, nil
	case "max-value", "":
		return MaxValue, nil
	}
	return 0, fmt.Errorf("dashboard: unknown objective %q", s)
}

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MaxThroughput:
		return "max-throughput"
	case MinCost:
		return "min-cost"
	case MinTime:
		return "min-time"
	case MaxValue:
		return "max-value"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Recommend picks the best assessment under the objective. deadline, when
// positive, excludes systems whose predicted time to solution exceeds it
// (for MinCost under a turnaround requirement).
func Recommend(as []Assessment, obj Objective, deadline float64) (Assessment, error) {
	var candidates []Assessment
	for _, a := range as {
		if deadline > 0 && a.Seconds > deadline {
			continue
		}
		candidates = append(candidates, a)
	}
	if len(candidates) == 0 {
		return Assessment{}, fmt.Errorf("dashboard: no system meets the %gs deadline", deadline)
	}
	best := candidates[0]
	for _, a := range candidates[1:] {
		switch obj {
		case MaxThroughput:
			if a.MFLUPS > best.MFLUPS {
				best = a
			}
		case MinCost:
			if a.USD < best.USD {
				best = a
			}
		case MinTime:
			if a.Seconds < best.Seconds {
				best = a
			}
		case MaxValue:
			if a.MFLUPSPerDollarHour > best.MFLUPSPerDollarHour {
				best = a
			}
		default:
			return Assessment{}, fmt.Errorf("dashboard: unknown objective %v", obj)
		}
	}
	return best, nil
}

// Pareto returns the assessments on the time/cost Pareto frontier: the
// options no other option beats on both predicted time to solution and
// predicted dollars. The paper leaves the final trade-off to the user
// ("it is ultimately up to the end user to determine what is important");
// the frontier is exactly the set worth putting in front of them, sorted
// fastest first.
func Pareto(as []Assessment) []Assessment {
	var frontier []Assessment
	for i, a := range as {
		dominated := false
		for j, b := range as {
			if i == j {
				continue
			}
			if b.Seconds <= a.Seconds && b.USD <= a.USD &&
				(b.Seconds < a.Seconds || b.USD < a.USD) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, a)
		}
	}
	sort.Slice(frontier, func(i, j int) bool {
		if frontier[i].Seconds != frontier[j].Seconds {
			return frontier[i].Seconds < frontier[j].Seconds
		}
		return frontier[i].USD < frontier[j].USD
	})
	return frontier
}

// RenderHeatmap renders the Eq. 17 matrix as a text table in the layout
// of Figure 11: B read from the left side, A from the top.
func RenderHeatmap(as []Assessment, m [][]float64) string {
	var b strings.Builder
	width := 10
	for _, a := range as {
		if len(a.System)+2 > width {
			width = len(a.System) + 2
		}
	}
	fmt.Fprintf(&b, "%*s", width, "")
	for _, a := range as {
		fmt.Fprintf(&b, "%*s", width, a.System)
	}
	b.WriteByte('\n')
	for i, a := range as {
		fmt.Fprintf(&b, "%*s", width, a.System)
		for j := range as {
			fmt.Fprintf(&b, "%*.4f", width, m[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderAssessments renders the dashboard table sorted by descending
// throughput. When any assessment carries tier provenance a Tier column
// is appended: the tier that served the prediction, its ± confidence
// half-width in MFLUPS, and an "extrap" marker for table extrapolation.
func RenderAssessments(as []Assessment) string {
	sorted := append([]Assessment(nil), as...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].MFLUPS > sorted[j].MFLUPS })
	withTier := false
	for _, a := range sorted {
		if a.Tier != "" {
			withTier = true
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %12s %12s %10s %14s",
		"System", "Ranks", "MFLUPS", "Seconds", "USD", "MFLUPS/$*h")
	if withTier {
		fmt.Fprintf(&b, "  %s", "Tier")
	}
	b.WriteByte('\n')
	for _, a := range sorted {
		fmt.Fprintf(&b, "%-14s %8d %12.2f %12.2f %10.4f %14.2f",
			a.System, a.Ranks, a.MFLUPS, a.Seconds, a.USD, a.MFLUPSPerDollarHour)
		if withTier {
			fmt.Fprintf(&b, "  %s", a.Tier)
			if half := (a.Confidence.HiMFLUPS - a.Confidence.LoMFLUPS) / 2; half > 0 {
				fmt.Fprintf(&b, " ±%.1f", half)
			}
			if a.Extrapolated {
				b.WriteString(" extrap")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
