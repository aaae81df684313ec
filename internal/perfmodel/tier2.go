package perfmodel

import (
	"embed"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Tier 2: measured lookup. A Table holds per-(system, kernel, points,
// ranks) throughput rows harvested from real (here: simulated-measured)
// runs — the InferSim "CSV cheat-sheet" pattern. LookupBackend serves
// predictions by deterministic nearest-neighbor interpolation over the
// rows for a (system, kernel) pair, flagging queries that leave the
// measured hull as extrapolated.

// ModelMeasured marks predictions produced from lookup tables rather
// than from either analytical model.
const ModelMeasured = "measured"

// TableRow is one measured sample: sustained throughput of kernel on
// system at a given problem size and rank count.
type TableRow struct {
	System string
	Kernel string
	Points int
	Ranks  int
	MFLUPS float64
}

// tableKey orders and groups rows; the CSV on disk must be sorted by it.
func (r TableRow) key() [4]string {
	return [4]string{r.System, r.Kernel,
		fmt.Sprintf("%020d", r.Points), fmt.Sprintf("%020d", r.Ranks)}
}

// Table is an immutable, validated set of measured rows grouped by
// (system, kernel). Build one with LoadTable (or take DefaultTable).
type Table struct {
	rows   []TableRow
	groups map[[2]string][]TableRow
}

// tableHeader is the required first line of every table CSV.
const tableHeader = "system,kernel,points,ranks,mflups"

// LoadTable parses and validates table CSV. Errors carry 1-based line
// numbers. Validation is strict — exact header, five fields, positive
// numerics, rows strictly sorted ascending by (system, kernel, points,
// ranks) with no duplicates — so that a committed table that drifts is
// caught by tier-1 tests, not by a bad prediction.
func LoadTable(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // length-checked per row for line-numbered errors
	t := &Table{groups: make(map[[2]string][]TableRow)}
	var prev TableRow
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
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
		if len(rec) != 5 {
			return nil, fmt.Errorf("table line %d: %d fields, want 5", line, len(rec))
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
		if row.MFLUPS, err = strconv.ParseFloat(rec[4], 64); err != nil || row.MFLUPS <= 0 || math.IsInf(row.MFLUPS, 0) {
			return nil, fmt.Errorf("table line %d: bad mflups %q", line, rec[4])
		}
		if len(t.rows) > 0 {
			switch a, b := prev.key(), row.key(); {
			case a == b:
				return nil, fmt.Errorf("table line %d: duplicate row for (%s, %s, %d, %d)",
					line, row.System, row.Kernel, row.Points, row.Ranks)
			case !less(a, b):
				return nil, fmt.Errorf("table line %d: rows not sorted by (system, kernel, points, ranks)", line)
			}
		}
		prev = row
		t.rows = append(t.rows, row)
		g := [2]string{row.System, row.Kernel}
		t.groups[g] = append(t.groups[g], row)
	}
	if len(t.rows) == 0 {
		return nil, fmt.Errorf("table line 1: no data rows (empty table)")
	}
	return t, nil
}

func less(a, b [4]string) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Len returns the number of measured rows.
func (t *Table) Len() int { return len(t.rows) }

// Systems returns the sorted set of systems with at least one row.
func (t *Table) Systems() []string {
	seen := map[string]bool{}
	for _, r := range t.rows {
		seen[r.System] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Covers reports whether the table has any row for (system, kernel).
func (t *Table) Covers(system, kernel string) bool {
	if kernel == "" {
		kernel = DefaultKernel
	}
	return len(t.groups[[2]string{system, kernel}]) > 0
}

// maxNeighbors is how many nearest table rows contribute to an
// interpolated lookup.
const maxNeighbors = 4

// Lookup interpolates throughput for (system, kernel) at a problem size
// and rank count. Interpolation runs in (log2 points, log2 ranks) space:
// up to maxNeighbors nearest rows are blended with inverse-distance
// weights. Determinism: candidates are ranked by (distance, table
// order), so equidistant neighbors tie-break on the table's sorted key
// order and equal inputs always produce equal outputs. dist is the
// log-space distance to the nearest row (0 on an exact hit);
// extrapolated is set when the query falls outside the group's measured
// bounding box.
func (t *Table) Lookup(system, kernel string, points, ranks int) (mflups, dist float64, extrapolated bool, err error) {
	if kernel == "" {
		kernel = DefaultKernel
	}
	if points <= 0 || ranks <= 0 {
		return 0, 0, false, fmt.Errorf("perfmodel: lookup needs positive points and ranks (got %d, %d)", points, ranks)
	}
	rows := t.groups[[2]string{system, kernel}]
	if len(rows) == 0 {
		return 0, 0, false, fmt.Errorf("%w: table has no rows for system %q kernel %q", ErrNoData, system, kernel)
	}
	qp, qr := math.Log2(float64(points)), math.Log2(float64(ranks))
	type cand struct {
		idx int
		d   float64
	}
	cands := make([]cand, len(rows))
	minP, maxP := math.Inf(1), math.Inf(-1)
	minR, maxR := math.Inf(1), math.Inf(-1)
	for i, r := range rows {
		rp, rr := math.Log2(float64(r.Points)), math.Log2(float64(r.Ranks))
		cands[i] = cand{idx: i, d: math.Hypot(qp-rp, qr-rr)}
		minP, maxP = math.Min(minP, rp), math.Max(maxP, rp)
		minR, maxR = math.Min(minR, rr), math.Max(maxR, rr)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	extrapolated = qp < minP || qp > maxP || qr < minR || qr > maxR
	dist = cands[0].d
	// An exact-key hit is a distance of exactly 0 (log2 of equal ints),
	// the one value 1/d below cannot take.
	if dist == 0 {
		return rows[cands[0].idx].MFLUPS, 0, extrapolated, nil
	}
	n := maxNeighbors
	if n > len(cands) {
		n = len(cands)
	}
	var num, den float64
	for _, c := range cands[:n] {
		w := 1 / c.d
		num += w * rows[c.idx].MFLUPS
		den += w
	}
	return num / den, dist, extrapolated, nil
}

//go:embed tables/*.csv
var embeddedTables embed.FS

var (
	defaultTableOnce sync.Once
	defaultTable     *Table
	defaultTableErr  error
)

// DefaultTable returns the table built from the committed CSVs under
// internal/perfmodel/tables/ (regenerate with `cmd/experiments
// -gen-tables`). The embedded data is validated once at first use; a
// corrupt commit surfaces here, and so in tier-1 tests:
// experiments' TestTiersAccuracyOrdering loads every embedded CSV
// through this function, and TestGenerateTableDeterministicAndValid
// requires the committed measured.csv to equal a LoadTable-validated
// generation byte for byte.
func DefaultTable() (*Table, error) {
	defaultTableOnce.Do(func() {
		names, err := embeddedTables.ReadDir("tables")
		if err != nil {
			defaultTableErr = err
			return
		}
		var buf strings.Builder
		buf.WriteString(tableHeader + "\n")
		for _, e := range names {
			b, err := embeddedTables.ReadFile("tables/" + e.Name())
			if err != nil {
				defaultTableErr = err
				return
			}
			s := strings.TrimPrefix(strings.TrimSpace(string(b)), tableHeader)
			buf.WriteString(strings.TrimSpace(s) + "\n")
		}
		defaultTable, defaultTableErr = LoadTable(strings.NewReader(buf.String()))
		if defaultTableErr != nil {
			defaultTableErr = fmt.Errorf("embedded tables: %v", defaultTableErr)
		}
	})
	return defaultTable, defaultTableErr
}

// LookupBackend is the Tier 2 Backend: it serves requests whose
// workload the table has measured, and declines (Covers == false) the
// parts of the request surface lookup cannot honor — occupancy
// degradation and calibrated terms, which only the analytical tiers
// model.
type LookupBackend struct {
	Sys   string
	Table *Table
}

// NewLookupBackend wraps a validated table for one system.
func NewLookupBackend(system string, table *Table) *LookupBackend {
	return &LookupBackend{Sys: system, Table: table}
}

// Tier returns Tier2Measured.
func (b *LookupBackend) Tier() string { return Tier2Measured }

// requestShape extracts (points, ranks) from either request form.
func (b *LookupBackend) requestShape(req Request) (points, ranks int, ok bool) {
	switch {
	case req.Workload != nil:
		if req.Ranks != 0 && req.Ranks != len(req.Workload.Tasks) {
			return 0, 0, false
		}
		return req.Workload.Points, len(req.Workload.Tasks), true
	case req.Summary != nil:
		return req.Summary.Points, req.Ranks, true
	}
	return 0, 0, false
}

// Covers reports whether the table can serve the request: a measured
// (system, kernel) group exists, no occupancy sharing, no terms.
func (b *LookupBackend) Covers(req Request) bool {
	if b.Table == nil || req.Occupancy > 0 || len(req.Terms) > 0 {
		return false
	}
	points, ranks, ok := b.requestShape(req)
	if !ok || points <= 0 || ranks <= 0 {
		return false
	}
	return b.Table.Covers(b.Sys, req.Kernel)
}

// Tier2BaseConfidenceRel is Tier 2's confidence half-width on an exact
// table hit (measurement noise floor); the band widens with table
// distance and doubles-plus when the query extrapolates off-hull.
const Tier2BaseConfidenceRel = 0.05

// Predict serves the request from the table. The result prices the
// whole step through measured MFLUPS, so the per-term breakdown
// (MemS/IntraS/InterS) is zero — lookup measures the sum, not the
// parts.
func (b *LookupBackend) Predict(req Request) (Prediction, error) {
	if b.Table == nil {
		return Prediction{}, fmt.Errorf("%w: no lookup table attached", ErrNoData)
	}
	if req.Occupancy > 0 {
		return Prediction{}, fmt.Errorf("perfmodel: measured tier does not model occupancy sharing")
	}
	if len(req.Terms) > 0 {
		return Prediction{}, fmt.Errorf("perfmodel: terms apply to the calibrated tier only")
	}
	points, ranks, ok := b.requestShape(req)
	if !ok {
		return Prediction{}, fmt.Errorf("perfmodel: request carries neither a usable workload nor a summary")
	}
	mflups, dist, extrap, err := b.Table.Lookup(b.Sys, req.Kernel, points, ranks)
	if err != nil {
		return Prediction{}, err
	}
	rel := Tier2BaseConfidenceRel + 0.1*dist
	if extrap {
		rel += 0.25
	}
	p := Prediction{
		Model:          ModelMeasured,
		System:         b.Sys,
		Ranks:          ranks,
		MFLUPS:         mflups,
		SecondsPerStep: float64(points) / (mflups * 1e6),
		Tier:           Tier2Measured,
		TableDistance:  dist,
		Extrapolated:   extrap,
	}
	p.Confidence = band(mflups, rel)
	return p, nil
}
