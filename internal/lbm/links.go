//lint:hot
package lbm

import "unsafe"

// minRun is the fewest consecutive bulk cells with equal offsets a Links
// table keeps as one run; a shorter stretch keeps a row per cell, where
// the run's fixed cost would buy little.
const minRun = 8

// bulkRun is a stretch of consecutive bulk cells [lo, hi) — every link
// of each leads to a cell of the block — whose locations sit at the same
// offsets from the cell's own slot: the neighbour of cell i along q is
// cell i + d[q] for every cell i of the run (d[0] is 0), so
// loc(i,q) − i·NQ = d[q]·NQ + q.
type bulkRun struct {
	lo, hi int32
	d      [NQ]int32
	before int32 // cells in the runs before this one
}

// row fills row with the link row of cell i of the run.
func (r *bulkRun) row(i int32, row *[NQ]int32) {
	for q := range row {
		row[q] = i + r.d[q]
	}
}

// Links is a block's link table — for each cell i and direction q,
// where the cell's value along q is kept between steps (CollideStream) —
// in two forms:
//
//   - runs: each maximal stretch of at least minRun consecutive bulk
//     cells with equal offsets loc(i,q) − i·NQ is one bulkRun, one
//     vector of offsets for the stretch, and the odd pass steps it
//     without loading an index;
//   - rows: every other cell keeps its explicit row of NQ entries (a
//     cell's own index, a local cell's index, -1 for a solid link or
//     RemoteLink(k)), cell after cell in ascending order.
//
// Row gives random access to any cell's row, by binary search over the
// runs. The zero value is the table of a block with no cells; build one
// with LinkBuilder.
type Links struct {
	runs []bulkRun // ascending
	rows []int32   // NQ entries per cell outside every run, ascending
}

// Row fills row with the link row of cell i.
func (l *Links) Row(i int, row *[NQ]int32) {
	lo, hi := 0, len(l.runs)
	for lo < hi { // the first run that ends after i
		m := int(uint(lo+hi) >> 1)
		if int(l.runs[m].hi) <= i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	l.rowAt(lo, i, row)
}

// from returns where the links of the cells from i on begin: k, the index
// of the first run that ends after i, found by a walk over the runs
// before it, and row, the index in rows of the first explicit row at or
// after i.
func (l *Links) from(i int) (k, row int) {
	runs := l.runs
	for len(runs) > 0 && int(runs[0].hi) <= i {
		runs = runs[1:]
	}
	k = len(l.runs) - len(runs)
	if len(runs) > 0 {
		r := &runs[0]
		return k, (min(i, int(r.lo)) - int(r.before)) * NQ
	}
	if n := len(l.runs); n > 0 {
		r := &l.runs[n-1]
		i -= int(r.before + r.hi - r.lo)
	}
	return k, i * NQ
}

// rowAt fills row with the link row of cell i, given k, the index of the
// first run that ends after i. Cells in earlier runs have no row, so an
// explicit row's index is i less the cells of runs[:k].
func (l *Links) rowAt(k, i int, row *[NQ]int32) {
	if k < len(l.runs) && int(l.runs[k].lo) <= i {
		l.runs[k].row(int32(i), row)
		return
	}
	if k > 0 {
		r := &l.runs[k-1]
		i -= int(r.before + r.hi - r.lo)
	}
	*row = *(*[NQ]int32)(l.rows[i*NQ : i*NQ+NQ])
}

// Cursor returns a RowCursor at the first cell of the table.
func (l *Links) Cursor() RowCursor { return RowCursor{l: l} }

// RowCursor reads the rows of cells visited in ascending order, each in
// amortized constant time: it walks the runs as the cells pass them.
type RowCursor struct {
	l *Links
	k int // the first run that ends after the last cell read
}

// Row fills row with the link row of cell i, which is no lower than the
// last cell the cursor read.
func (c *RowCursor) Row(i int, row *[NQ]int32) {
	runs := c.l.runs
	for c.k < len(runs) && int(runs[c.k].hi) <= i {
		c.k++
	}
	c.l.rowAt(c.k, i, row)
}

// RelabelRemote replaces every RemoteLink(d) entry with RemoteLink(to[d]):
// for a builder that numbers remote links in the order it meets them and
// learns their halo slots after the last cell. Only explicit rows hold
// remote links.
func (l *Links) RelabelRemote(to []int32) {
	for j, nb := range l.rows {
		if d := int(remoteLink - nb); d >= 0 {
			l.rows[j] = RemoteLink(int(to[d]))
		}
	}
}

// Bytes returns the memory the table holds, counted from the capacities
// of its slices.
func (l *Links) Bytes() int {
	return cap(l.runs)*int(unsafe.Sizeof(bulkRun{})) + cap(l.rows)*4
}

// LinkBuilder builds a Links table from the rows of a block's cells,
// handed to Add one cell after another in ascending order from cell 0.
// A stretch of bulk cells is held back until it ends, then stored as a
// run when it is long enough and as rows when it is not. Rows are kept
// in chunks that are never regrown, and Links copies them once into a
// table of exactly their size: a build leaves at most that much garbage.
type LinkBuilder struct {
	runs   []bulkRun
	chunks [][]int32 // explicit rows, each chunk a whole number of them
	rows   int       // entries in chunks
	run    bulkRun   // the current stretch of bulk cells, not yet stored
}

// Rows a builder's first chunk holds, and the most any chunk holds; each
// chunk holds twice the last one's between the two.
const firstChunk, maxChunk = 64, 1 << 12

// Add appends cell i's link row, i being the cell after the last one
// added.
func (b *LinkBuilder) Add(i int, row *[NQ]int32) {
	if b.extends(i, row) {
		b.run.hi++
		return
	}
	b.start(i, row)
}

// Links returns the table of the cells added. The builder is spent.
func (b *LinkBuilder) Links() Links {
	b.flush()
	return joinLinks([]*LinkBuilder{b})
}

// extends reports whether cell i continues the current stretch: it is
// the cell after the stretch's last, and its neighbour along each q is
// cell i + d[q]. A solid or remote entry never matches: it is negative,
// and i + d[q] is one past the neighbour of the cell before, a cell of
// the block.
func (b *LinkBuilder) extends(i int, row *[NQ]int32) bool {
	r := &b.run
	if r.lo == r.hi || int(r.hi) != i {
		return false
	}
	for q := 1; q < NQ; q++ {
		if row[q]-int32(i) != r.d[q] {
			return false
		}
	}
	return true
}

// start stores the current stretch and begins another at cell i if the
// cell is bulk, every link leading to a cell of the block; a cell that is
// not keeps its row.
func (b *LinkBuilder) start(i int, row *[NQ]int32) {
	b.flush()
	r := &b.run
	for q := 1; q < NQ; q++ {
		if row[q] < 0 {
			b.appendRow(row)
			return
		}
		r.d[q] = row[q] - int32(i)
	}
	r.lo, r.hi = int32(i), int32(i)+1
}

// flush stores the current stretch of bulk cells: as one run if it has
// minRun cells, as their rows if it has fewer.
func (b *LinkBuilder) flush() {
	r := &b.run
	if r.hi-r.lo >= minRun {
		b.runs = append(b.runs, *r)
	} else {
		var row [NQ]int32
		for i := r.lo; i < r.hi; i++ {
			r.row(i, &row)
			b.appendRow(&row)
		}
	}
	r.lo, r.hi = 0, 0
}

// appendRow appends an explicit row to the last chunk, opening a new one
// when it is full.
func (b *LinkBuilder) appendRow(row *[NQ]int32) {
	n := len(b.chunks)
	if n == 0 || len(b.chunks[n-1]) == cap(b.chunks[n-1]) {
		size := firstChunk
		if n > 0 {
			size = min(2*cap(b.chunks[n-1])/NQ, maxChunk)
		}
		b.chunks = append(b.chunks, make([]int32, 0, size*NQ))
		n++
	}
	b.chunks[n-1] = append(b.chunks[n-1], row[:]...)
	b.rows += NQ
}

// joinLinks copies the runs and rows of flushed builders of consecutive
// blocks of cells, each ending where the next begins, into one table
// whose slices are exactly their length, and counts each run's cells
// before it.
func joinLinks(parts []*LinkBuilder) Links {
	var runs, rows int
	for _, p := range parts {
		runs += len(p.runs)
		rows += p.rows
	}
	out := Links{runs: make([]bulkRun, 0, runs), rows: make([]int32, 0, rows)}
	var ran int32
	for _, p := range parts {
		for _, r := range p.runs {
			r.before = ran
			ran += r.hi - r.lo
			out.runs = append(out.runs, r)
		}
		for _, c := range p.chunks {
			out.rows = append(out.rows, c...)
		}
	}
	return out
}

// linkTable builds the table of every site's LinkRow (NewSparse's) over
// ForRanges ranges. Each range walks its sites in global scan order,
// their coordinates advancing row by row without a division, and builds
// the part of the table from the first site at or after its start that
// begins a stretch — a site that is not bulk, or whose offsets differ
// from its predecessor's — up to the first that does at or after its
// end. Every part thus ends where a stretch does, and the parts join into
// the table one walk over all sites builds, for any number of ranges.
func (l *Lattice) linkTable() Links {
	workers := min(SetupWorkers(l.n), l.n)
	parts := make([]*LinkBuilder, workers)
	ForRanges(l.n, workers, func(w, lo, hi int) { parts[w] = l.linkRange(lo, hi) })
	return joinLinks(parts)
}

// linkRange builds the part of the table range [lo, hi) owns. It starts
// at site lo-1 to learn whether lo continues a stretch, and drops what it
// built before the first site at or after lo that does not.
func (l *Lattice) linkRange(lo, hi int) *LinkBuilder {
	b := new(LinkBuilder)
	started := false
	from := max(lo-1, 0)
	rows := l.Cursor()
	var row [NQ]int32
	for i := from; i < l.n; i++ {
		rows.Row(i, &row)
		if b.extends(i, &row) {
			b.run.hi++
			continue
		}
		if i >= hi {
			break
		}
		if !started && i >= lo {
			*b = LinkBuilder{} // the range before owns site lo-1's stretch
			started = true
		}
		b.start(i, &row)
	}
	if !started {
		return new(LinkBuilder) // one stretch runs across the whole range
	}
	b.flush()
	return b
}
