package perfmodel

import (
	"cmp"
	_ "embed"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/machine"
)

// Tier 2: the model formula times a measured efficiency. A Table holds,
// per (system, kernel, points, ranks), a measured run's MFLUPS divided by
// each model's on the same workload, priced on the system's reference
// characterization — InferSim's MFU-table pattern: the table keeps a
// smooth, bounded efficiency and the physics stays in the formula. Tier 2
// prices a request on the reference and scales the result by the
// efficiency of the request's model, interpolated from the system's rows.

// ReferenceSamples is the averaging of every table's reference
// characterization, Characterize(sys, ReferenceSamples, nil). It is
// noiseless, but its fits still move in the last bits with the sample
// count, so a table's efficiencies hold for this one value.
const ReferenceSamples = 1

// FixedLaws are the laws the generalized model runs on at Tiers 0 and 2,
// whatever laws a request carries: z ≡ 1, DefaultPointCommBytes and
// FitGeneral's fallback event law, so a run across nodes pays message
// latency wherever a link has any. A table's general efficiencies are
// measured against the model on these laws.
func FixedLaws() GeneralModel { return GeneralModel{Events: DefaultEventsLaw()} }

// TableRow is one measured sample of kernel on system at a problem size
// and rank count: its measured MFLUPS over the direct model's
// (Efficiency) and over the generalized model's on FixedLaws
// (GeneralEfficiency).
type TableRow struct {
	System            string
	Kernel            string
	Points            int
	Ranks             int
	Efficiency        float64
	GeneralEfficiency float64
}

// Table is an immutable, validated set of efficiency rows grouped by
// (system, kernel), holding each system's reference characterization,
// built once when the table loads. Build one with LoadTable (or take
// DefaultTable).
type Table struct {
	groups map[[2]string]*rowGroup
	refs   map[string]*Characterization
}

// rowGroup is one (system, kernel)'s rows in (log2 points, log2 ranks)
// space, in table order, and the box they span.
type rowGroup struct {
	rows                   []effRow
	minP, maxP, minR, maxR float64
}

type effRow struct {
	p, r float64
	eff  [2]float64 // direct, generalized
}

// tableHeader is the required first line of a table CSV.
const tableHeader = "system,kernel,points,ranks,efficiency,general_efficiency"

// LoadTable parses and validates table CSV. Errors carry 1-based line
// numbers. Validation is strict — exact header, six fields, a catalog
// system (machine.ByAbbrev), positive numerics, finite efficiencies, rows
// strictly sorted ascending by (system, kernel, points, ranks) with no
// duplicates — so that a committed table that drifts is caught by tier-1
// tests, not by a bad prediction.
func LoadTable(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // length-checked per row for line-numbered errors
	t := &Table{groups: map[[2]string]*rowGroup{}, refs: map[string]*Characterization{}}
	var prev TableRow
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			if line <= 2 {
				return nil, fmt.Errorf("table line 1: no data rows (empty table)")
			}
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("table line %d: %v", line, err)
		}
		if line == 1 {
			if strings.Join(rec, ",") != tableHeader {
				return nil, fmt.Errorf("table line 1: header %q, want %q", strings.Join(rec, ","), tableHeader)
			}
			continue
		}
		if len(rec) != 6 {
			return nil, fmt.Errorf("table line %d: %d fields, want 6", line, len(rec))
		}
		row := TableRow{System: rec[0], Kernel: rec[1]}
		if row.System == "" || row.Kernel == "" {
			return nil, fmt.Errorf("table line %d: empty system or kernel", line)
		}
		if row.Points, err = strconv.Atoi(rec[2]); err != nil || row.Points <= 0 {
			return nil, fmt.Errorf("table line %d: bad points %q", line, rec[2])
		}
		if row.Ranks, err = strconv.Atoi(rec[3]); err != nil || row.Ranks <= 0 {
			return nil, fmt.Errorf("table line %d: bad ranks %q", line, rec[3])
		}
		var eff [2]float64 // direct, generalized
		for i, name := range [2]string{"efficiency", "general_efficiency"} {
			if eff[i], err = strconv.ParseFloat(rec[4+i], 64); err != nil || !(eff[i] > 0) || math.IsInf(eff[i], 0) {
				return nil, fmt.Errorf("table line %d: bad %s %q", line, name, rec[4+i])
			}
		}
		if line > 2 {
			switch cmp.Or(cmp.Compare(prev.System, row.System), cmp.Compare(prev.Kernel, row.Kernel),
				cmp.Compare(prev.Points, row.Points), cmp.Compare(prev.Ranks, row.Ranks)) {
			case 0:
				return nil, fmt.Errorf("table line %d: duplicate row for (%s, %s, %d, %d)",
					line, row.System, row.Kernel, row.Points, row.Ranks)
			case 1:
				return nil, fmt.Errorf("table line %d: rows not sorted by (system, kernel, points, ranks)", line)
			}
		}
		prev = row
		if t.refs[row.System] == nil {
			sys, err := machine.ByAbbrev(row.System)
			if err != nil {
				return nil, fmt.Errorf("table line %d: %v", line, err)
			}
			if t.refs[row.System], err = Characterize(sys, ReferenceSamples, nil); err != nil {
				return nil, fmt.Errorf("table line %d: %v", line, err)
			}
		}
		key := [2]string{row.System, row.Kernel}
		g := t.groups[key]
		if g == nil {
			g = &rowGroup{minP: math.Inf(1), maxP: math.Inf(-1), minR: math.Inf(1), maxR: math.Inf(-1)}
			t.groups[key] = g
		}
		p, r := math.Log2(float64(row.Points)), math.Log2(float64(row.Ranks))
		g.rows = append(g.rows, effRow{p: p, r: r, eff: eff})
		g.minP, g.maxP = math.Min(g.minP, p), math.Max(g.maxP, p)
		g.minR, g.maxR = math.Min(g.minR, r), math.Max(g.maxR, r)
	}
}

// Covers reports whether the table has any row for (system, kernel).
func (t *Table) Covers(system, kernel string) bool { return t.group(system, kernel) != nil }

// group is (system, kernel)'s rows, DefaultKernel's for an empty kernel.
func (t *Table) group(system, kernel string) *rowGroup {
	if kernel == "" {
		kernel = DefaultKernel
	}
	return t.groups[[2]string{system, kernel}]
}

// maxNeighbors is how many nearest table rows contribute to an
// interpolated efficiency.
const maxNeighbors = 4

// efficiency interpolates model's efficiency on (system, kernel) at a
// problem size and rank count in (log2 points, log2 ranks) space: up to
// maxNeighbors nearest rows are blended with inverse-distance weights,
// and an exact hit is that row's value. Rows at equal distance rank in
// table order, so equal inputs always give equal outputs. extrapolated is
// set when the query leaves the box the rows span.
func (t *Table) efficiency(system, kernel, model string, points, ranks int) (eff float64, extrapolated bool, err error) {
	g := t.group(system, kernel)
	if g == nil {
		return 0, false, fmt.Errorf("%w: table has no rows for system %q kernel %q", ErrNoData, system, kernel)
	}
	if points <= 0 {
		return 0, false, fmt.Errorf("perfmodel: measured tier needs positive points (got %d)", points)
	}
	m := 0
	if model == ModelGeneral {
		m = 1
	}
	qp, qr := math.Log2(float64(points)), math.Log2(float64(ranks))
	var near [maxNeighbors]struct{ d, eff float64 } // nearest first
	n := 0
	for _, row := range g.rows {
		d := math.Hypot(qp-row.p, qr-row.r)
		if d == 0 { // log2 of equal ints: the one value 1/d cannot take
			return row.eff[m], false, nil
		}
		i := n
		if n == maxNeighbors {
			if d >= near[n-1].d {
				continue
			}
			i--
		} else {
			n++
		}
		for ; i > 0 && near[i-1].d > d; i-- {
			near[i] = near[i-1]
		}
		near[i].d, near[i].eff = d, row.eff[m]
	}
	var num, den float64
	for _, c := range near[:n] {
		num += c.eff / c.d
		den += 1 / c.d
	}
	return num / den, qp < g.minP || qp > g.maxP || qr < g.minR || qr > g.maxR, nil
}

// Tier2BaseConfidenceRel is Tier 2's confidence half-width inside the box
// its rows span (measurement noise floor); a query outside it widens the
// band by 0.25.
const Tier2BaseConfidenceRel = 0.05

// scale turns the reference's prediction p of req into Tier 2's: MFLUPS
// times p's model's efficiency interpolated at req's shape, every time
// term divided by it, and Tier 2's band and extrapolation flag.
func (t *Table) scale(p Prediction, req Request) (Prediction, error) {
	var points int
	if p.Model == ModelDirect {
		points = req.Workload.Points
	} else {
		points = req.Summary.Points
	}
	eff, extrap, err := t.efficiency(p.System, req.Kernel, p.Model, points, p.Ranks)
	if err != nil {
		return Prediction{}, err
	}
	p.MFLUPS *= eff
	p.SecondsPerStep, p.MemS, p.IntraS, p.InterS = p.SecondsPerStep/eff, p.MemS/eff, p.IntraS/eff, p.InterS/eff
	p.CPUGPUs, p.CommBandwidthS, p.CommLatencyS = p.CPUGPUs/eff, p.CommBandwidthS/eff, p.CommLatencyS/eff
	p.Extrapolated = extrap
	rel := Tier2BaseConfidenceRel
	if extrap {
		rel += 0.25
	}
	p.Confidence = band(p.MFLUPS, rel)
	return p, nil
}

//go:embed tables/measured.csv
var measuredCSV string

var defaultTable = sync.OnceValues(func() (*Table, error) {
	t, err := LoadTable(strings.NewReader(measuredCSV))
	if err != nil {
		return nil, fmt.Errorf("embedded table: %v", err)
	}
	return t, nil
})

// DefaultTable returns the table built from the committed
// internal/perfmodel/tables/measured.csv (regenerate with
// `cmd/experiments -gen-tables`). The embedded data is validated once at
// first use; a corrupt commit surfaces here, and so in tier-1 tests:
// experiments' TestTiersAccuracyOrdering loads it through this function,
// and TestGenerateTableDeterministicAndValid requires measured.csv to
// equal a LoadTable-validated generation byte for byte.
func DefaultTable() (*Table, error) { return defaultTable() }
