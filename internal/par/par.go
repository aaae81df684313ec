// Package par executes a decomposed LBM simulation in parallel: one
// goroutine per task ("rank"), halo values exchanged over channels, no
// shared mutable state between ranks. It is the MPI-substrate of this
// reproduction — the same owner-computes structure and pairwise halo
// messages a distributed HARVEY run uses, so the per-task byte and message
// counts the performance models consume are exercised by real concurrent
// execution.
//
// Each rank steps its block with the step body the serial lbm.Sparse
// engine steps the whole lattice with (lbm.CollideStream: the AA pattern
// on one distribution array per rank, plus a halo of one value per remote
// link), so a parallel run reproduces the serial result bitwise regardless
// of rank count — the key correctness oracle.
//
// As MPI ranks build their own blocks, NewRunner builds each rank on a
// goroutine of its own once a lattice reaches twice lbm.SetupFloor sites
// (fewer goroutines than ranks share them in rank order); the only serial
// work is the pass that lists each rank's sites and the wiring of edges
// to their receivers in rank order. No rank's build reads another's, so
// the runner does not depend on GOMAXPROCS.
package par

import (
	"fmt"
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

// rank is the per-goroutine state of one task: a block of cells in the
// form lbm.CollideStream steps.
type rank struct {
	id int

	computeNS int64 // accumulated compute time
	commNS    int64 // accumulated communication time

	// nOwn*NQ distributions, AOS, in the layout of the runner's step
	// count (lbm.CollideStream); read and written through lbm.LoadCell
	// and lbm.StoreCell.
	f []float64

	// links holds the block's link rows (lbm.Links): entry q of cell
	// i's row is where the cell's value along q is kept between steps
	// (lbm.CollideStream):
	//   >= 0   the local cell at x + c_q
	//   -1     the link is solid (cell i's own opposite slot)
	//   <= -2  lbm.RemoteLink(k): slot k of halo, the cell is another rank's
	// A cell with a remote link keeps an explicit row.
	links lbm.Links
	// halo has one slot per remote link, edge after edge. After an even
	// step the exchange fills it with the values that arrived; the odd
	// step reads them and leaves the values to send in their place.
	halo []float64

	bounds []lbm.BoundarySite // the block's inlet and outlet cells, ascending

	// Communication schedule.
	sendTo   []sendPlan // outgoing edges, sorted by peer
	recvFrom []recvPlan // incoming edges, sorted by peer
}

// sendPlan is one outgoing edge, whose message holds the edge's links in
// its canonical order. After an odd step the message is the edge's
// segment of the halo, which the step body has filled; after an even step
// value k is gathered from flat slot srcFlat[k] of f.
type sendPlan struct {
	peer    int
	e       *edge
	seg     []float64
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
	steps  int
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

// NewRunner builds per-rank state from the serial engine s (its current
// distributions and step count become the initial condition) and
// partition p. One serial pass checks the owners and lists each rank's
// sites and boundaries; then every rank builds its arrays, link rows and
// outgoing edges (buildRank), the edges are wired to their receivers in
// rank order, and every rank fills its ghost tables and state (fill), the
// ranks of each stage on their own goroutines (lbm.ForRanges).
func NewRunner(s *lbm.Sparse, p *decomp.Partition) (*Runner, error) {
	if len(p.Owner) != s.N() {
		return nil, fmt.Errorf("par: partition covers %d sites, lattice has %d", len(p.Owner), s.N())
	}
	if p.NTasks < 1 {
		return nil, fmt.Errorf("par: partition has %d tasks", p.NTasks)
	}
	r := &Runner{
		params:  s.Params,
		steps:   s.Steps(),
		now:     time.Now,
		ownerOf: make([]int32, s.N()),
		localOf: make([]int32, s.N()),
	}
	copy(r.ownerOf, p.Owner)

	// Owned-site lists in serial order, checking every owner before any
	// rank is built.
	r.ranks = make([]*rank, p.NTasks)
	for t := range r.ranks {
		r.ranks[t] = &rank{id: t}
	}
	own := make([][]int32, p.NTasks)
	for si, t := range p.Owner {
		if t < 0 || int(t) >= p.NTasks {
			return nil, fmt.Errorf("par: site %d is owned by task %d, outside [0, %d)", si, t, p.NTasks)
		}
		r.localOf[si] = int32(len(own[t]))
		own[t] = append(own[t], int32(si))
	}
	for _, b := range s.Boundaries() {
		rk := r.ranks[p.Owner[b.Cell]]
		b.Cell = r.localOf[b.Cell]
		rk.bounds = append(rk.bounds, b)
	}

	// Each rank's block and outgoing edges. Ranks are wired in order, so
	// every rank's incoming plans come out sorted by peer, as its
	// outgoing ones are.
	workers := lbm.SetupWorkers(s.N())
	wires := make([][]wire, p.NTasks)
	lbm.ForRanges(p.NTasks, workers, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			wires[t] = r.buildRank(s, p.Owner, own[t], t)
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
			r.ranks[t].fill(s, own[t], r.steps)
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

// buildRank allocates rank t's arrays and derives its link table and
// its outgoing edges from s's, walked in ascending serial order; own
// lists the rank's sites in that order. A link into another rank's block
// is collected under the receiving rank with the flat slot it leaves
// from and the flat slot it arrives in, and held in its row as
// RemoteLink(d), d counting remote links as they are met, until the
// edges are sorted and d's halo slot is known. It returns the edges for
// their receivers.
func (r *Runner) buildRank(s *lbm.Sparse, owner, own []int32, t int) []wire {
	type link struct{ src, dst, d int32 }
	rk := r.ranks[t]
	rk.f = make([]float64, len(own)*lbm.NQ)
	out := make(map[int32][]link) // receiver -> links
	remote := 0
	serial := s.Links().Cursor()
	var b lbm.LinkBuilder
	var row [lbm.NQ]int32
	for i, si := range own {
		serial.Row(int(si), &row)
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
	rk.links = b.Links()

	// Edges in peer order. Within an edge the canonical link order, shared
	// by both ends, is ascending (receiving site, direction): ascending
	// arrival slot.
	rk.halo = make([]float64, remote)
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
		rk.sendTo = append(rk.sendTo, sendPlan{peer: int(peer), e: e, seg: rk.halo[base : base+len(ls)], srcFlat: srcFlat})
		wires = append(wires, wire{to: peer, plan: recvPlan{peer: t, e: e, dstFlat: dstFlat}})
		base += len(ls)
	}
	rk.links.RelabelRemote(slotOf)
	return wires
}

// fill builds the rank's ghost tables, once every link row is wired, and
// stores its sites' state from s in the layout of the step count steps.
// An arriving value bound for slot q of cell y is the rank's own link
// (y, opp q), whose halo slot it fills after an even step.
func (rk *rank) fill(s *lbm.Sparse, own []int32, steps int) {
	var row [lbm.NQ]int32
	for k := range rk.recvFrom {
		rp := &rk.recvFrom[k]
		rp.ghost = make([]int32, len(rp.dstFlat))
		for j, dst := range rp.dstFlat {
			y, q := int(dst)/lbm.NQ, int(dst)%lbm.NQ
			rk.links.Row(y, &row)
			rp.ghost[j] = lbm.RemoteLink(0) - row[lbm.Opp[q]] // k of RemoteLink(k)
		}
	}
	for i, si := range own {
		cell := s.Cell(int(si))
		lbm.StoreCell(rk.f, &rk.links, rk.halo, i, steps, &cell)
	}
}

// Run advances all ranks by the given number of timesteps concurrently;
// a count below one changes nothing.
func (r *Runner) Run(steps int) {
	if steps < 1 {
		return
	}
	base := r.steps
	var wg sync.WaitGroup
	for _, rk := range r.ranks {
		wg.Add(1)
		go func(rk *rank) {
			defer wg.Done()
			for k := 0; k < steps; k++ {
				rk.step(r.params, base+k, r.now)
			}
		}(rk)
	}
	wg.Wait()
	r.steps += steps
}

// step is one rank-local timestep: the step body of lbm.Sparse.Step over
// the rank's block, the halo exchange, then the boundary conditions, which
// need every streamed value in place.
func (rk *rank) step(p lbm.Params, stepIndex int, now Clock) {
	tick := now()
	lbm.CollideStream(rk.f, &rk.links, rk.halo, p, stepIndex)
	rk.computeNS += now().Sub(tick).Nanoseconds()
	tick = now()

	// Post-collision halo exchange, one message per edge. After an odd
	// step the values to send are the edge's segment of the halo and
	// arrive in f; after an even one they are gathered from f and arrive
	// in the halo.
	odd := stepIndex&1 != 0
	for _, sp := range rk.sendTo {
		buf := sp.e.nextBuf()
		if odd {
			copy(buf, sp.seg)
		} else {
			gather(buf, rk.f, sp.srcFlat)
		}
		sp.e.ch <- buf
	}
	for _, rp := range rk.recvFrom {
		msg := <-rp.e.ch
		if odd {
			scatter(rk.f, rp.dstFlat, msg)
		} else {
			scatter(rk.halo, rp.ghost, msg)
		}
	}

	rk.commNS += now().Sub(tick).Nanoseconds()
	tick = now()

	lbm.ApplyBoundaries(rk.f, &rk.links, rk.halo, rk.bounds, p, stepIndex)
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
			Rank:     rk.id,
			ComputeS: float64(rk.computeNS) / 1e9,
			CommS:    float64(rk.commNS) / 1e9,
		}
	}
	return out
}

// Steps returns the timestep count of the state: the serial engine's when
// the runner was built plus the parallel steps since.
func (r *Runner) Steps() int { return r.steps }

// Cell returns the distribution at serial site si after the last Run.
func (r *Runner) Cell(si int) [lbm.NQ]float64 {
	rk := r.ranks[r.ownerOf[si]]
	return lbm.LoadCell(rk.f, &rk.links, rk.halo, int(r.localOf[si]), r.steps)
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

// WriteBack copies the parallel state — distributions and step count —
// into the serial engine s, which must be the engine the runner was built
// from (or an identically shaped one).
func (r *Runner) WriteBack(s *lbm.Sparse) {
	for si := 0; si < len(r.ownerOf); si++ {
		s.SetCell(si, r.Cell(si))
	}
	s.SetSteps(r.steps)
}
