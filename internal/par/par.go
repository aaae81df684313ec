// Package par executes a decomposed LBM simulation in parallel: one
// goroutine per task ("rank"), halo values exchanged over channels, no
// shared mutable state between ranks. It is the MPI-substrate of this
// reproduction — the same owner-computes structure and pairwise halo
// messages a distributed HARVEY run uses, so the per-task byte and message
// counts the performance models consume are exercised by real concurrent
// execution.
//
// Each rank is an lbm.Block, the engine the serial lbm.Sparse is over the
// whole lattice (the AA pattern on one distribution array, plus a halo of
// one value per remote link), so a parallel run reproduces the serial
// result bitwise regardless of rank count — the key correctness oracle.
//
// As MPI ranks build their own blocks, New derives each rank's link rows
// from the lattice over its own sites, each rank on a goroutine of its
// own once a lattice reaches twice lbm.SetupFloor sites (fewer goroutines
// than ranks share them in rank order); the only serial work is the pass
// that lists each rank's sites and the wiring of edges to their receivers
// in rank order. No rank's build reads another's, so the runner does not
// depend on GOMAXPROCS.
package par

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/decomp"
	"repro/internal/lbm"
)

// edge carries one direction of a pairwise halo exchange. The two buffers
// rotate: with a capacity-1 channel, a buffer is never refilled before the
// receiver has consumed the message that preceded it.
type edge struct {
	ch   chan []float64
	bufs [2][]float64
	turn int
}

func (e *edge) nextBuf() []float64 {
	b := e.bufs[e.turn]
	e.turn ^= 1
	return b
}

// RankStats is the measured per-rank time split of a host run — the
// empirical counterpart of the model's Figure 9 composition.
type RankStats struct {
	Rank     int
	ComputeS float64 // collision + streaming + boundary conditions
	CommS    float64 // halo gather, send, receive, scatter (incl. waiting)
}

// rank is the per-goroutine state of one task: its block of cells, its
// edges, and its time split.
type rank struct {
	lbm.Block

	// Communication schedule.
	sendTo   []sendPlan // outgoing edges, sorted by peer
	recvFrom []recvPlan // incoming edges, sorted by peer

	computeNS int64 // accumulated compute time
	commNS    int64 // accumulated communication time
}

// sendPlan is one outgoing edge, whose message holds the edge's links in
// its canonical order. After an odd step the message is the edge's
// segment of the halo, from slot seg on, which the step body has filled;
// after an even step value k is gathered from flat slot srcFlat[k] of f.
type sendPlan struct {
	peer    int
	e       *edge
	seg     int
	srcFlat []int32
}

// recvPlan scatters an incoming message: value k belongs in flat slot
// dstFlat[k] of f after an odd step, and in slot ghost[k] of the halo
// after an even one.
type recvPlan struct {
	peer    int
	e       *edge
	dstFlat []int32
	ghost   []int32
}

// Clock abstracts the wall clock behind the per-rank timing split.
// Production runs measure real time; deterministic harnesses (and the
// fleet scheduler's simulated instances) inject a virtual clock so the
// same seed always yields the same RankStats.
type Clock func() time.Time

// Runner executes a partitioned simulation.
type Runner struct {
	ranks  []*rank
	params lbm.Params
	now    Clock

	// site lookup for result readback: serial site -> (rank, local index)
	ownerOf []int32
	localOf []int32
}

// SetClock replaces the wall clock used for the compute/communication
// timing split. Passing nil restores time.Now.
func (r *Runner) SetClock(c Clock) {
	if c == nil {
		c = time.Now
	}
	r.now = c
}

// New builds a runner for lattice l under partition p, the fluid at rest
// with unit density: each rank derives its link rows from l.LinkRow over
// its own sites (build).
func New(l *lbm.Lattice, p *decomp.Partition) (*Runner, error) {
	return build(l, p, func() rowCursor {
		c := l.Cursor()
		return &c
	}, nil)
}

// NewRunner builds a runner for the serial engine's lattice under
// partition p whose initial condition is s's current state, distributions
// and step count. Its ranks read their rows from s's link table, which is
// quicker than deriving them again.
func NewRunner(s *lbm.Sparse, p *decomp.Partition) (*Runner, error) {
	return build(s.Lattice, p, func() rowCursor {
		c := s.Links().Cursor()
		return &c
	}, &s.Block)
}

// rowCursor reads the link rows of serial sites visited in ascending
// order: an lbm.LatticeCursor, or an lbm.RowCursor over a stored table.
type rowCursor interface {
	Row(si int, row *[lbm.NQ]int32)
}

// build is New and NewRunner: one serial pass checks the owners and lists
// each rank's sites and boundaries; then every rank builds its link rows,
// outgoing edges and block from its own cursor (buildRank), the edges are
// wired to their receivers in rank order, and every rank fills its ghost
// tables, the ranks of each stage on their own goroutines
// (lbm.ForRanges). cursor returns a new cursor; from, when not nil, is
// the serial engine's block whose state the runner starts from, and the
// rest state otherwise.
func build(l *lbm.Lattice, p *decomp.Partition, cursor func() rowCursor, from *lbm.Block) (*Runner, error) {
	if len(p.Owner) != l.N() {
		return nil, fmt.Errorf("par: partition covers %d sites, lattice has %d", len(p.Owner), l.N())
	}
	if p.NTasks < 1 {
		return nil, fmt.Errorf("par: partition has %d tasks", p.NTasks)
	}
	r := &Runner{
		params:  l.Params(),
		now:     time.Now,
		ownerOf: make([]int32, l.N()),
		localOf: make([]int32, l.N()),
	}
	copy(r.ownerOf, p.Owner)

	// Owned-site lists in serial order, checking every owner before any
	// rank is built.
	own := make([][]int32, p.NTasks)
	for si, t := range p.Owner {
		if t < 0 || int(t) >= p.NTasks {
			return nil, fmt.Errorf("par: site %d is owned by task %d, outside [0, %d)", si, t, p.NTasks)
		}
		r.localOf[si] = int32(len(own[t]))
		own[t] = append(own[t], int32(si))
	}
	bounds := make([][]lbm.BoundarySite, p.NTasks)
	for _, b := range l.BoundarySites() {
		t := p.Owner[b.Cell]
		b.Cell = r.localOf[b.Cell]
		bounds[t] = append(bounds[t], b)
	}

	// Each rank's block and outgoing edges. Ranks are wired in order, so
	// every rank's incoming plans come out sorted by peer, as its
	// outgoing ones are.
	r.ranks = make([]*rank, p.NTasks)
	workers := lbm.SetupWorkers(l.N())
	wires := make([][]wire, p.NTasks)
	lbm.ForRanges(p.NTasks, workers, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			r.ranks[t], wires[t] = r.buildRank(cursor(), p.Owner, own[t], t, bounds[t], from)
		}
	})
	for _, ws := range wires {
		for _, w := range ws {
			receiver := r.ranks[w.to]
			receiver.recvFrom = append(receiver.recvFrom, w.plan)
		}
	}
	lbm.ForRanges(p.NTasks, workers, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			r.ranks[t].ghosts()
		}
	})
	return r, nil
}

// wire is an edge as its sender builds it: the receiving rank and the
// plan it receives the edge's messages by.
type wire struct {
	to   int32
	plan recvPlan
}

// buildRank builds rank t: its link table and outgoing edges from the
// serial rows rows reads, walked in ascending serial order (own lists the
// rank's sites in that order), then its block over them with the
// boundary cells bounds, at rest or a copy of from's (lbm.NewBlock). A link
// into another rank's block is collected under the receiving rank with
// the flat slot it leaves from and the flat slot it arrives in, and held
// in its row as RemoteLink(d), d counting remote links as they are met,
// until the edges are sorted and d's halo slot is known. It returns the
// rank and the edges for their receivers.
func (r *Runner) buildRank(rows rowCursor, owner, own []int32, t int, bounds []lbm.BoundarySite, from *lbm.Block) (*rank, []wire) {
	type link struct{ src, dst, d int32 }
	rk := &rank{}
	f := make([]float64, len(own)*lbm.NQ) // before the walk's garbage (lbm.NewBlock)
	out := make(map[int32][]link)         // receiver -> links
	remote := 0
	var b lbm.LinkBuilder
	var row [lbm.NQ]int32
	for i, si := range own {
		rows.Row(int(si), &row)
		row[0] = int32(i)
		for q := 1; q < lbm.NQ; q++ {
			switch nb := row[q]; {
			case nb < 0: // solid: -1 in either table
			case owner[nb] == int32(t):
				row[q] = r.localOf[nb]
			default:
				peer := owner[nb]
				out[peer] = append(out[peer], link{src: int32(i*lbm.NQ + q), dst: r.localOf[nb]*lbm.NQ + int32(q), d: int32(remote)})
				row[q] = lbm.RemoteLink(remote)
				remote++
			}
		}
		b.Add(i, &row)
	}
	links := b.Links()

	// Edges in peer order. Within an edge the canonical link order, shared
	// by both ends, is ascending (receiving site, direction): ascending
	// arrival slot.
	slotOf := make([]int32, remote) // d -> halo slot
	peers := make([]int32, 0, len(out))
	for peer := range out {
		peers = append(peers, peer)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	wires := make([]wire, 0, len(peers))
	base := 0
	for _, peer := range peers {
		ls := out[peer]
		sort.Slice(ls, func(i, j int) bool { return ls[i].dst < ls[j].dst })
		e := &edge{ch: make(chan []float64, 1)}
		e.bufs[0] = make([]float64, len(ls))
		e.bufs[1] = make([]float64, len(ls))
		srcFlat := make([]int32, len(ls))
		dstFlat := make([]int32, len(ls))
		for k, l := range ls {
			slotOf[l.d] = int32(base + k)
			q := l.src % lbm.NQ
			srcFlat[k] = l.src - q + int32(lbm.Opp[q]) // where the even pass leaves it
			dstFlat[k] = l.dst
		}
		rk.sendTo = append(rk.sendTo, sendPlan{peer: int(peer), e: e, seg: base, srcFlat: srcFlat})
		wires = append(wires, wire{to: peer, plan: recvPlan{peer: t, e: e, dstFlat: dstFlat}})
		base += len(ls)
	}
	links.RelabelRemote(slotOf)
	rk.Block = lbm.NewBlock(f, links, remote, bounds, from, own)
	return rk, wires
}

// ghosts builds the rank's ghost tables, once every link row is wired. An
// arriving value bound for slot q of cell y is the rank's own link
// (y, opp q), whose halo slot it fills after an even step.
func (rk *rank) ghosts() {
	var row [lbm.NQ]int32
	for k := range rk.recvFrom {
		rp := &rk.recvFrom[k]
		rp.ghost = make([]int32, len(rp.dstFlat))
		for j, dst := range rp.dstFlat {
			y, q := int(dst)/lbm.NQ, int(dst)%lbm.NQ
			rk.Links().Row(y, &row)
			rp.ghost[j] = lbm.RemoteLink(0) - row[lbm.Opp[q]] // k of RemoteLink(k)
		}
	}
}

// Run advances all ranks by the given number of timesteps concurrently;
// a count below one changes nothing.
func (r *Runner) Run(steps int) {
	if steps < 1 {
		return
	}
	var wg sync.WaitGroup
	for _, rk := range r.ranks {
		wg.Add(1)
		go func(rk *rank) {
			defer wg.Done()
			for k := 0; k < steps; k++ {
				rk.step(r.params, r.now)
			}
		}(rk)
	}
	wg.Wait()
}

// step is one rank-local timestep: the first pass of lbm.Sparse.Step over
// the rank's block, the halo exchange, then the boundary conditions, which
// need every streamed value in place.
func (rk *rank) step(p lbm.Params, now Clock) {
	tick := now()
	rk.CollideStream(p)
	rk.computeNS += now().Sub(tick).Nanoseconds()
	tick = now()

	// Post-collision halo exchange, one message per edge. After an odd
	// step the values to send are the edge's segment of the halo and
	// arrive in f; after an even one they are gathered from f and arrive
	// in the halo.
	odd := rk.Steps()&1 != 0
	f, halo := rk.Slots()
	for _, sp := range rk.sendTo {
		buf := sp.e.nextBuf()
		if odd {
			copy(buf, halo[sp.seg:])
		} else {
			gather(buf, f, sp.srcFlat)
		}
		sp.e.ch <- buf
	}
	for _, rp := range rk.recvFrom {
		msg := <-rp.e.ch
		if odd {
			scatter(f, rp.dstFlat, msg)
		} else {
			scatter(halo, rp.ghost, msg)
		}
	}

	rk.commNS += now().Sub(tick).Nanoseconds()
	tick = now()

	rk.ApplyBoundaries(p)
	rk.computeNS += now().Sub(tick).Nanoseconds()
}

// gather fills buf[k] from src[idx[k]]. An index out of range, which
// NewRunner never builds, is skipped: the compare is the bounds proof.
//
//lint:hot
func gather(buf, src []float64, idx []int32) {
	for k := 0; k < len(buf) && k < len(idx); k++ {
		if j := int(idx[k]); uint(j) < uint(len(src)) {
			buf[k] = src[j]
		}
	}
}

// scatter stores msg[k] in dst[idx[k]], as gather skips what it skips.
//
//lint:hot
func scatter(dst []float64, idx []int32, msg []float64) {
	for k := 0; k < len(msg) && k < len(idx); k++ {
		if j := int(idx[k]); uint(j) < uint(len(dst)) {
			dst[j] = msg[k]
		}
	}
}

// Stats returns the measured per-rank compute/communication split since
// the runner was built.
func (r *Runner) Stats() []RankStats {
	out := make([]RankStats, len(r.ranks))
	for i, rk := range r.ranks {
		out[i] = RankStats{
			Rank:     i,
			ComputeS: float64(rk.computeNS) / 1e9,
			CommS:    float64(rk.commNS) / 1e9,
		}
	}
	return out
}

// Steps returns the timestep count of the state: the initial condition's
// plus the parallel steps since.
func (r *Runner) Steps() int { return r.ranks[0].Steps() }

// Cell returns the distribution at serial site si after the last Run.
func (r *Runner) Cell(si int) [lbm.NQ]float64 {
	return r.ranks[r.ownerOf[si]].Cell(int(r.localOf[si]))
}

// TotalMass sums density across all ranks in the serial engine's (site,
// direction) order, so a state equal to the serial one has its mass bit
// for bit.
func (r *Runner) TotalMass() float64 {
	var m float64
	for si := range r.ownerOf {
		for _, v := range r.Cell(si) {
			m += v
		}
	}
	return m
}

// MaxSpeed returns the largest velocity magnitude over all ranks' cells,
// the serial engine's MaxSpeed of the same state.
func (r *Runner) MaxSpeed() float64 {
	var vmax float64
	for _, rk := range r.ranks {
		vmax = math.Max(vmax, rk.MaxSpeed())
	}
	return vmax
}
