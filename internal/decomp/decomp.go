// Package decomp partitions a sparse LBM lattice across parallel tasks and
// derives exactly the quantities the paper's performance models consume:
// per-task point and byte counts (the direct model's n_bytes-j of Eq. 9),
// halo message sizes and event counts between task pairs, and the measured
// load-imbalance factors that the generalized model's z(n) law (Eqs. 10-11)
// is fitted against.
//
// The partitioner is recursive coordinate bisection (RCB) over fluid
// sites: at every level the current point set is split along the longest
// axis of its bounding box, weighted by task share, which is the balanced
// geometric decomposition HARVEY-class codes use. Sites are ordered by
// (coordinate, site index), so a split depends only on the set of sites;
// keeping every tree node's sites in ascending index order makes each
// split one histogram and one stable pass instead of a sort (see bisect).
//
// RCBSweep decomposes over many task counts at once — the calibration
// sweep of the generalized model. Power-of-two counts always halve, so
// their trees nest and all of them are read off one tree grown to the
// largest; RCB is a sweep of one count. Per-task statistics are counted
// without maps, one task at a time over sites grouped by owner, and only
// the finest level of a nested tree scans links: a coarser task is the
// union of its subtree's tasks, so its halos, points and composition are
// theirs merged. Bytes are summed per task in ascending site order at
// every level, so results are reproducible to the bit.
//
// A lattice of at least twice lbm.SetupFloor sites is decomposed on up to
// GOMAXPROCS goroutines (lbm.SetupWorkers): site coordinates are filled
// over site ranges, the two halves of a split node are bisected at once
// in disjoint windows of the scratch arrays, and the link scan gives each
// goroutine a contiguous run of tasks and counters of its own, its halos
// concatenated in task order. Every goroutine writes only slots no other
// one reads and every sum keeps its order, so a partition is the same to
// the bit for any GOMAXPROCS; smaller lattices run on the caller's
// goroutine alone. DESIGN.md §14 states the invariants; reference_test.go
// keeps the sort-based decomposer these replaced as the oracle the tests
// compare whole partitions against.
package decomp

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/geometry"
	"repro/internal/lbm"
)

// Halo describes one direction of a pairwise halo exchange: the lattice
// links crossing from one task to a specific peer.
type Halo struct {
	Peer  int // receiving task
	Links int // (site, direction) pairs crossing per timestep
}

// Bytes returns the message payload per timestep.
func (h Halo) Bytes() float64 { return float64(h.Links) * lbm.CommBytesPerLink }

// Task summarizes one task's share of the decomposed workload.
type Task struct {
	ID     int
	Points int                        // fluid sites owned
	ByType map[geometry.PointType]int // composition of owned sites
	Bytes  float64                    // memory bytes accessed per timestep (Eq. 9)
	Sends  []Halo                     // outgoing halo messages, sorted by peer
}

// Events returns the number of send events per timestep (one per peer; the
// matching receives are the peers' sends).
func (t *Task) Events() int { return len(t.Sends) }

// TotalSendBytes returns the bytes this task sends per timestep.
func (t *Task) TotalSendBytes() float64 {
	var b float64
	for _, h := range t.Sends {
		b += h.Bytes()
	}
	return b
}

// Partition is a complete decomposition of a lattice over NTasks tasks.
type Partition struct {
	NTasks int
	Owner  []int32 // local sparse-site index -> owning task
	Tasks  []Task
}

// TaskCountError reports a task count above the lattice's fluid-site
// count: every task must own at least one site. The request is at fault,
// not the decomposer, so callers serving outside input match it with
// errors.As.
type TaskCountError struct {
	NTasks int // the count requested
	Sites  int // the lattice's fluid sites, the largest count accepted
}

func (e *TaskCountError) Error() string {
	return fmt.Sprintf("decomp: ntasks %d exceeds fluid sites %d", e.NTasks, e.Sites)
}

// Topology is what a decomposition reads of its subject: the lattice. A
// *lbm.Lattice is one, and so is a solver built over one (*lbm.Sparse).
type Topology interface{ Topology() *lbm.Lattice }

// RCB decomposes the lattice of t over ntasks tasks by recursive
// coordinate bisection and computes all per-task statistics under access
// model m.
func RCB(t Topology, ntasks int, m lbm.AccessModel) (*Partition, error) {
	parts, err := RCBSweep(t, []int{ntasks}, m)
	if err != nil {
		return nil, err
	}
	return parts[0], nil
}

// RCBSweep decomposes the lattice of t over every task count in counts:
// parts[i] equals RCB(t, counts[i], m). All the power-of-two counts are
// read off one bisection tree grown to the largest of them (see bisect
// for why those trees nest): the largest has its links scanned, every
// smaller one is merged from the next larger (see mergeTask). Any other
// count is bisected and scanned on its own. The whole sweep works in one
// set of scratch arrays.
func RCBSweep(t Topology, counts []int, m lbm.AccessModel) ([]*Partition, error) {
	l := t.Topology()
	n := l.N()
	maxCount := 0
	var nested []int // the power-of-two entries of counts, finest first
	for i, k := range counts {
		if k < 1 {
			return nil, fmt.Errorf("decomp: ntasks %d must be positive", k)
		}
		if k > n {
			return nil, &TaskCountError{NTasks: k, Sites: n}
		}
		maxCount = max(maxCount, k)
		if isPow2(k) {
			nested = append(nested, i)
		}
	}
	slices.SortStableFunc(nested, func(i, j int) int { return counts[j] - counts[i] })
	b := newBisector(l)
	w := newTally(l, m, maxCount, b.siteCoords)
	parts := make([]*Partition, len(counts))

	// The depth-d nodes of the finest tree are the tasks of the 2^d-way
	// partition, numbered by the high d bits of the leaf number.
	var finer *Partition
	for _, i := range nested {
		p := &Partition{NTasks: counts[i], Owner: make([]int32, n)}
		if finer == nil {
			b.decompose(p.NTasks, p.Owner)
		} else {
			shift := levelsBelow(p, finer)
			for si, leaf := range finer.Owner {
				p.Owner[si] = leaf >> shift
			}
		}
		w.computeStats(p, finer)
		parts[i], finer = p, p
	}
	for i, k := range counts {
		if parts[i] == nil {
			p := &Partition{NTasks: k, Owner: make([]int32, n)}
			b.decompose(k, p.Owner)
			w.computeStats(p, nil)
			parts[i] = p
		}
	}
	return parts, nil
}

func isPow2(k int) bool { return k&(k-1) == 0 }

// levelsBelow returns how many tree levels finer lies below p, both
// power-of-two partitions of one tree: finer task q is under p's q >> it.
func levelsBelow(p, finer *Partition) int {
	return bits.TrailingZeros(uint(finer.NTasks / p.NTasks))
}

// siteCoords holds every site's lattice coordinates, indexed by site:
// what bisection splits on, and where a link scan derives each site's
// links from.
type siteCoords struct{ xs, ys, zs []int32 }

func newSiteCoords(l *lbm.Lattice) siteCoords {
	n := l.N()
	c := siteCoords{xs: make([]int32, n), ys: make([]int32, n), zs: make([]int32, n)}
	lbm.ForRanges(n, lbm.SetupWorkers(n), func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			x, y, z := l.SiteCoords(si)
			c.xs[si], c.ys[si], c.zs[si] = int32(x), int32(y), int32(z)
		}
	})
	return c
}

// bisector is the scratch the bisections of one RCB call, or of a whole
// sweep, work in.
type bisector struct {
	siteCoords
	sites []int32 // every tree node's sites: contiguous, ascending
	right []int32 // each node's right half while it splits, in the node's window
	hist  []int32 // sites per coordinate along the split axis
}

func newBisector(s *lbm.Lattice) *bisector {
	n := s.N()
	return &bisector{
		siteCoords: newSiteCoords(s),
		sites:      make([]int32, n),
		right:      make([]int32, n),
		hist:       make([]int32, max(s.NX, s.NY, s.NZ)),
	}
}

// decompose fills owner with the ntasks-way RCB partition.
func (b *bisector) decompose(ntasks int, owner []int32) {
	for i := range b.sites {
		b.sites[i] = int32(i)
	}
	b.bisect(b.sites, b.right, 0, ntasks, owner, lbm.SetupWorkers(len(b.sites)))
}

// bisect assigns tasks [task0, task0+k) to sites, a window of b.sites in
// ascending site order, splitting in right, the same window of b.right.
// The sites are split along the longest axis of their bounding box:
// ordered by (coordinate, site number), the first cut go left. Because
// the window is ascending, one stable pass makes that split — every site
// below the cut coordinate, then the lowest-numbered sites on it — and
// leaves both halves ascending for the next level.
//
// When k is a power of two, cut is len(sites)/2 whatever k is, so a node
// splits the same way in every power-of-two tree that reaches it: those
// trees nest. For other k the cut moves with k and they do not.
//
// With workers > 1 the two halves are bisected concurrently (see
// bisectApart), sharing the workers between them.
//
//lint:hot
func (b *bisector) bisect(sites, right []int32, task0, k int, owner []int32, workers int) {
	if k == 1 {
		for _, si := range sites {
			owner[si] = int32(task0)
		}
		return
	}
	xs, ys, zs := b.xs, b.ys, b.zs
	first := sites[0]
	minX, maxX := xs[first], xs[first]
	minY, maxY := ys[first], ys[first]
	minZ, maxZ := zs[first], zs[first]
	for _, si := range sites[1:] {
		x, y, z := xs[si], ys[si], zs[si]
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
		minZ, maxZ = min(minZ, z), max(maxZ, z)
	}
	coord, lo, hi := xs, minX, maxX
	switch {
	case maxY-minY > maxX-minX && maxY-minY >= maxZ-minZ:
		coord, lo, hi = ys, minY, maxY
	case maxZ-minZ > maxX-minX && maxZ-minZ > maxY-minY:
		coord, lo, hi = zs, minZ, maxZ
	}
	kLeft := k / 2
	cut := len(sites) * kLeft / k

	// The cut coordinate is the one the cut-th site in coordinate order
	// sits on; of the sites on it, ties go left.
	hist := b.hist[:hi-lo+1]
	clear(hist)
	for _, si := range sites {
		hist[coord[si]-lo]++
	}
	below, at := 0, 0
	for below+int(hist[at]) <= cut {
		below += int(hist[at])
		at++
	}
	cutCoord, ties := lo+int32(at), cut-below

	right = right[:len(sites)]
	upper := right[cut:]
	nl, nr := 0, 0
	for _, si := range sites {
		c := coord[si]
		switch {
		case c < cutCoord:
			sites[nl] = si
			nl++
		case c == cutCoord && ties > 0:
			ties--
			sites[nl] = si
			nl++
		default:
			upper[nr] = si
			nr++
		}
	}
	copy(sites[cut:], upper)

	if workers > 1 {
		b.bisectApart(sites, right, cut, task0, k, owner, workers)
		return
	}
	b.bisect(sites[:cut], right[:cut], task0, kLeft, owner, 1)
	b.bisect(sites[cut:], right[cut:], task0+kLeft, k-kLeft, owner, 1)
}

// bisectApart bisects the two halves of a split node, sites[:cut] and
// sites[cut:], on two goroutines, half of workers under each. The halves'
// windows of sites, right and owner are disjoint, and the second gets a
// histogram of its own, so each splits exactly as it would alone.
func (b *bisector) bisectApart(sites, right []int32, cut, task0, k int, owner []int32, workers int) {
	kLeft := k / 2
	apart := &bisector{siteCoords: b.siteCoords, hist: make([]int32, len(b.hist))}
	lbm.ForRanges(2, 2, func(half, _, _ int) {
		if half == 0 {
			b.bisect(sites[:cut], right[:cut], task0, kLeft, owner, workers/2)
		} else {
			apart.bisect(sites[cut:], right[cut:], task0+kLeft, k-kLeft, owner, workers-workers/2)
		}
	})
}

// tally is the scratch computeStats works in, sized for the largest task
// count it will see.
type tally struct {
	l          *lbm.Lattice
	siteCoords                      // where scanTask derives each site's links
	pointBytes [lbm.NQ + 1]float64  // the access model's PointBytes by stored-vector count
	kinds      []geometry.PointType // the point types the lattice has, ascending
	order      []int32              // sites grouped by owner, ascending within each
	start      []int32              // order[start[t]:start[t+1]] are task t's sites (one spare slot)
	counters   []counters           // one per goroutine a link scan runs on
	bytes      []float64            // bytes per task
}

// counters is what the statistics of one task accumulate in, and the halos
// of the tasks emitted so far: one goroutine's share of a link scan, or
// the whole of a merge.
type counters struct {
	links  []int32    // crossing links per peer, for the task under way
	peers  []int32    // the peers links is non-zero for
	byType [256]int32 // sites per point type, for the task under way
	sends  []Halo     // the emitted tasks' halos, back to back
}

func newTally(l *lbm.Lattice, m lbm.AccessModel, maxTasks int, c siteCoords) *tally {
	w := &tally{
		l:          l,
		siteCoords: c,
		order:      make([]int32, l.N()),
		start:      make([]int32, maxTasks+2),
		counters:   make([]counters, min(lbm.SetupWorkers(l.N()), maxTasks)),
		bytes:      make([]float64, maxTasks),
	}
	for i := range w.counters {
		w.counters[i].links = make([]int32, maxTasks)
		w.counters[i].peers = make([]int32, maxTasks)
	}
	for v := range w.pointBytes {
		w.pointBytes[v] = m.PointBytes(v)
	}
	var present [256]bool
	for si := 0; si < l.N(); si++ {
		present[l.Type(si)] = true
	}
	for typ, ok := range present {
		if ok {
			w.kinds = append(w.kinds, geometry.PointType(typ))
		}
	}
	return w
}

// computeStats fills per-task points, bytes, composition and halos from
// p.Owner, one task at a time so a single dense per-peer counter serves
// them all. With finer nil the tasks' links are scanned, contiguous runs
// of tasks on goroutines of their own, each with its own counters;
// otherwise finer is a partition of the same bisection tree with 2^d
// times the tasks, and each task is merged from its 2^d descendants there.
func (w *tally) computeStats(p, finer *Partition) {
	p.Tasks = make([]Task, p.NTasks)
	for i := range w.counters {
		w.counters[i].sends = w.counters[i].sends[:0]
	}
	if finer == nil {
		w.groupByOwner(p)
		lbm.ForRanges(p.NTasks, len(w.counters), func(i, lo, hi int) {
			c := &w.counters[i]
			for t := lo; t < hi; t++ {
				task := &p.Tasks[t]
				task.Points = int(w.start[t+1] - w.start[t])
				w.emit(c, task, t, w.scanTask(c, p.Owner, t))
			}
		})
	} else {
		shift := levelsBelow(p, finer)
		c := &w.counters[0]
		for t := range p.Tasks {
			task := &p.Tasks[t]
			var npeers int
			task.Points, npeers = w.mergeTask(c, finer.Tasks[t<<shift:(t+1)<<shift], t, shift)
			w.emit(c, task, t, npeers)
		}
	}
	// One exact-size allocation holds every task's halos, in task order;
	// each task gets its window of it.
	total := 0
	for i := range w.counters {
		total += len(w.counters[i].sends)
	}
	all := make([]Halo, 0, total)
	for i := range w.counters {
		all = append(all, w.counters[i].sends...)
	}
	for t := range p.Tasks {
		if n := len(p.Tasks[t].Sends); n > 0 {
			p.Tasks[t].Sends, all = all[:n:n], all[n:]
		}
	}

	// Bytes (Eq. 9): one pass in ascending site order, so each task's sum
	// adds its sites' bytes in the order it always has, whatever the level
	// — a parent's float sum is not the sum of its children's.
	bytes := w.bytes[:p.NTasks]
	clear(bytes)
	for si, t := range p.Owner {
		bytes[t] += w.pointBytes[w.l.Vectors(si)]
	}
	for t := range p.Tasks {
		p.Tasks[t].Bytes = bytes[t]
	}
}

// emit records task t's composition and halos from the counters a scan
// or a merge left in c, npeers peers of them, and zeroes what it reads.
func (w *tally) emit(c *counters, task *Task, t, npeers int) {
	task.ID = t
	task.ByType = make(map[geometry.PointType]int, 4)
	for _, typ := range w.kinds {
		if n := c.byType[typ]; n > 0 {
			task.ByType[typ] = int(n)
			c.byType[typ] = 0
		}
	}
	peers := c.peers[:npeers]
	slices.Sort(peers)
	mark := len(c.sends)
	for _, peer := range peers {
		c.sends = append(c.sends, Halo{Peer: int(peer), Links: int(c.links[peer])})
		c.links[peer] = 0
	}
	if npeers > 0 {
		task.Sends = c.sends[mark:] // only its length survives, see computeStats
	}
}

// groupByOwner counting-sorts the sites by p.Owner into w.order and
// w.start. The sort is stable, so each task's sites stay ascending.
//
//lint:hot
func (w *tally) groupByOwner(p *Partition) {
	// Counted two slots up, the prefix sums put task t's first position
	// in c[t+1]; filling advances it to t's end, which is where t+1
	// begins, so c[:NTasks+1] ends up as the start table with no second
	// cursor array.
	c := w.start[:p.NTasks+2]
	clear(c)
	for _, t := range p.Owner {
		c[t+2]++
	}
	for t := 2; t < len(c); t++ {
		c[t] += c[t-1]
	}
	for si, t := range p.Owner {
		w.order[c[t+1]] = int32(si)
		c[t+1]++
	}
}

// scanTask walks the links of task t's sites, deriving each site's row
// from the lattice's index at the coordinates the sweep already holds. It
// leaves the crossing-link counts in c.links with the peers they are
// non-zero for in c.peers[:npeers], and the site composition in
// c.byType; the caller zeroes what it reads.
//
//lint:hot
func (w *tally) scanTask(c *counters, owner []int32, t int) (npeers int) {
	l, links, peers := w.l, c.links, c.peers
	xs, ys, zs := w.xs, w.ys, w.zs
	var row [lbm.NQ]int32
	for _, si := range w.order[w.start[t]:w.start[t+1]] {
		l.LinkRow(&row, int(si), int(xs[si]), int(ys[si]), int(zs[si]))
		for _, nb := range row[1:] {
			if nb < 0 {
				continue
			}
			if peer := owner[nb]; int(peer) != t {
				if links[peer] == 0 {
					peers[npeers] = peer
					npeers++
				}
				links[peer]++
			}
		}
		c.byType[l.Type(int(si))]++
	}
	return npeers
}

// mergeTask is scanTask for a task t whose sites are exactly those of
// children, its 2^shift descendants in a finer partition of the same
// tree: it leaves the same counts without touching a link. It is exact
// because a crossing link of t crosses out of one child to a task outside
// all of them, and that task's ancestor at t's level is its number
// shifted right; the links a child sends to a peer under the same
// ancestor stay inside t and drop out; points and composition add.
//
//lint:hot
func (w *tally) mergeTask(c *counters, children []Task, t, shift int) (points, npeers int) {
	links, peers := c.links, c.peers
	for i := range children {
		child := &children[i]
		points += child.Points
		for _, typ := range w.kinds {
			c.byType[typ] += int32(child.ByType[typ])
		}
		for _, h := range child.Sends {
			peer := int32(h.Peer >> shift)
			if int(peer) == t {
				continue
			}
			if links[peer] == 0 {
				peers[npeers] = peer
				npeers++
			}
			links[peer] += int32(h.Links)
		}
	}
	return points, npeers
}

// MaxBytes returns the largest per-task memory byte count — the
// max_j(n_bytes-j) of Eq. 10.
func (p *Partition) MaxBytes() float64 {
	var m float64
	for i := range p.Tasks {
		if p.Tasks[i].Bytes > m {
			m = p.Tasks[i].Bytes
		}
	}
	return m
}

// TotalBytes returns the summed per-task byte counts, which equals the
// serial byte count (decomposition moves work, it does not create it).
func (p *Partition) TotalBytes() float64 {
	var t float64
	for i := range p.Tasks {
		t += p.Tasks[i].Bytes
	}
	return t
}

// Imbalance returns the measured load-imbalance factor: the ratio of the
// busiest task's bytes to the perfectly balanced share. This is the
// empirical z of Eq. 10 that the z(n) law of Eq. 11 is fitted against.
func (p *Partition) Imbalance() float64 {
	total := p.TotalBytes()
	if total == 0 {
		return 1
	}
	return p.MaxBytes() / (total / float64(p.NTasks))
}

// InterStats returns the busiest task's inter-node halo payload (bytes
// per timestep, sends plus receives) and message-event count under block
// placement of one task per core with the given node width. These are the
// placement-aware observations the generalized model's communication laws
// (Eqs. 13 and 15) are calibrated against.
func (p *Partition) InterStats(coresPerNode int) (maxBytes float64, maxEvents int) {
	nodeOf := func(task int) int { return task / coresPerNode }
	for t := range p.Tasks {
		var bytes float64
		events := 0
		for _, h := range p.Tasks[t].Sends {
			if nodeOf(h.Peer) != nodeOf(t) {
				bytes += 2 * h.Bytes() // send + matching receive
				events += 2
			}
		}
		if bytes > maxBytes {
			maxBytes = bytes
		}
		if events > maxEvents {
			maxEvents = events
		}
	}
	return maxBytes, maxEvents
}

// Validate checks structural invariants: every site owned, point counts
// summing to the lattice size, and halo symmetry (task a sends exactly as
// many links to b as b sends to a, because crossing links pair up through
// opposite directions).
func (p *Partition) Validate(t Topology) error {
	s := t.Topology()
	total := 0
	for i := range p.Tasks {
		total += p.Tasks[i].Points
	}
	if total != s.N() {
		return fmt.Errorf("decomp: task points sum %d != %d fluid sites", total, s.N())
	}
	for _, o := range p.Owner {
		if o < 0 || int(o) >= p.NTasks {
			return fmt.Errorf("decomp: owner %d outside [0,%d)", o, p.NTasks)
		}
	}
	sends := make(map[[2]int]int)
	for t := range p.Tasks {
		for _, h := range p.Tasks[t].Sends {
			sends[[2]int{t, h.Peer}] = h.Links
		}
	}
	for key, n := range sends {
		back := sends[[2]int{key[1], key[0]}]
		if back != n {
			return fmt.Errorf("decomp: halo asymmetry %d->%d: %d vs %d links", key[0], key[1], n, back)
		}
	}
	return nil
}
