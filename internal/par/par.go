// Package par executes a decomposed LBM simulation in parallel: one
// goroutine per task ("rank"), halo values exchanged over channels, no
// shared mutable state between ranks. It is the MPI-substrate of this
// reproduction — the same owner-computes structure, pairwise halo
// messages, and double-buffered communication a distributed HARVEY run
// uses, so the per-task byte and message counts the performance models
// consume are exercised by real concurrent execution.
//
// Each rank steps its block with the step body the serial lbm.Sparse
// engine steps the whole lattice with (lbm.CollideStream), so a parallel
// run reproduces the serial result bitwise regardless of rank count — the
// key correctness oracle.
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

	f, fnew []float64 // nOwn*NQ distributions, AOS

	// links holds the block's link rows: for flat slot (i*NQ+q), where the
	// post-collision value of cell i along q goes:
	//   >= 0   the local cell at x + c_q
	//   -1     nowhere: the link is solid (bounce back into cell i)
	//   <= -2  lbm.RemoteLink(k): slot k of send, the cell is another rank's
	links []int32
	send  []float64 // flat send space, one slot per outgoing link, edge after edge

	bounds []lbm.BoundarySite // the block's inlet and outlet cells, ascending

	// Communication schedule.
	sendTo   []sendPlan // outgoing edges, sorted by peer
	recvFrom []recvPlan // incoming edges, sorted by peer
}

// sendPlan is one outgoing edge: its segment of the rank's send space,
// which the step body has filled in the edge's canonical link order.
type sendPlan struct {
	peer int
	e    *edge
	seg  []float64
}

// recvPlan scatters an incoming message into fnew: value k of the message
// belongs in flat slot dstFlat[k].
type recvPlan struct {
	peer    int
	e       *edge
	dstFlat []int32
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
// partition p.
func NewRunner(s *lbm.Sparse, p *decomp.Partition) (*Runner, error) {
	if len(p.Owner) != s.N() {
		return nil, fmt.Errorf("par: partition covers %d sites, lattice has %d", len(p.Owner), s.N())
	}
	r := &Runner{
		params:  s.Params,
		steps:   s.Steps(),
		now:     time.Now,
		ownerOf: make([]int32, s.N()),
		localOf: make([]int32, s.N()),
	}
	copy(r.ownerOf, p.Owner)

	// Owned-site lists in serial order.
	r.ranks = make([]*rank, p.NTasks)
	for t := range r.ranks {
		r.ranks[t] = &rank{id: t}
	}
	own := make([][]int32, p.NTasks)
	for si := 0; si < s.N(); si++ {
		t := p.Owner[si]
		r.localOf[si] = int32(len(own[t]))
		own[t] = append(own[t], int32(si))
	}
	for _, b := range s.Boundaries() {
		rk := r.ranks[p.Owner[b.Cell]]
		b.Cell = r.localOf[b.Cell]
		rk.bounds = append(rk.bounds, b)
	}

	// Per-rank arrays, link rows and outgoing edges. A link into another
	// rank's block is collected under the receiving rank with the flat
	// slot it leaves from and the flat slot it arrives in.
	type link struct{ src, dst int32 }
	for t, rk := range r.ranks {
		n := len(own[t])
		rk.f = make([]float64, n*lbm.NQ)
		rk.fnew = make([]float64, n*lbm.NQ)
		rk.links = make([]int32, n*lbm.NQ)
		out := make(map[int32][]link) // receiver -> links
		remote := 0
		for i, si := range own[t] {
			cell := s.Cell(int(si))
			copy(rk.f[i*lbm.NQ:(i+1)*lbm.NQ], cell[:])
			for q := 0; q < lbm.NQ; q++ {
				slot := int32(i*lbm.NQ + q)
				nb := s.Neighbor(int(si), q)
				switch {
				case nb < 0:
					rk.links[slot] = -1
				case p.Owner[nb] == int32(t):
					rk.links[slot] = r.localOf[nb]
				default:
					peer := p.Owner[nb]
					out[peer] = append(out[peer], link{src: slot, dst: r.localOf[nb]*lbm.NQ + int32(q)})
					remote++
				}
			}
		}

		// Edges in peer order; ranks are visited in order, so every
		// rank's incoming plans come out sorted by peer too. Within an
		// edge the canonical link order, shared by both ends, is
		// ascending (receiving site, direction): ascending arrival slot.
		rk.send = make([]float64, remote)
		peers := make([]int32, 0, len(out))
		for peer := range out {
			peers = append(peers, peer)
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		base := 0
		for _, peer := range peers {
			ls := out[peer]
			sort.Slice(ls, func(i, j int) bool { return ls[i].dst < ls[j].dst })
			e := &edge{ch: make(chan []float64, 1)}
			e.bufs[0] = make([]float64, len(ls))
			e.bufs[1] = make([]float64, len(ls))
			dstFlat := make([]int32, len(ls))
			for k, l := range ls {
				rk.links[l.src] = lbm.RemoteLink(base + k)
				dstFlat[k] = l.dst
			}
			rk.sendTo = append(rk.sendTo, sendPlan{peer: int(peer), e: e, seg: rk.send[base : base+len(ls)]})
			receiver := r.ranks[peer]
			receiver.recvFrom = append(receiver.recvFrom, recvPlan{peer: t, e: e, dstFlat: dstFlat})
			base += len(ls)
		}
	}
	return r, nil
}

// Run advances all ranks by the given number of timesteps concurrently.
func (r *Runner) Run(steps int) {
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
// the rank's block (collide, push-stream; values bound for other ranks
// land in the send space), the halo exchange, then the boundary
// conditions, which need every streamed value in place.
func (rk *rank) step(p lbm.Params, stepIndex int, now Clock) {
	tick := now()
	lbm.CollideStream(rk.f, rk.fnew, rk.links, rk.send, p)
	rk.computeNS += now().Sub(tick).Nanoseconds()
	tick = now()

	// Post-collision halo exchange: one contiguous copy out per edge, one
	// scatter into fnew per message.
	for _, sp := range rk.sendTo {
		buf := sp.e.nextBuf()
		copy(buf, sp.seg)
		sp.e.ch <- buf
	}
	fnew := rk.fnew
	for _, rp := range rk.recvFrom {
		msg := <-rp.e.ch
		for k, dst := range rp.dstFlat {
			fnew[dst] = msg[k]
		}
	}

	rk.commNS += now().Sub(tick).Nanoseconds()
	tick = now()

	lbm.ApplyBoundaries(rk.fnew, rk.bounds, p.Pulsatile.Scale(stepIndex))
	rk.f, rk.fnew = rk.fnew, rk.f
	rk.computeNS += now().Sub(tick).Nanoseconds()
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
func (r *Runner) Cell(si int) (c [lbm.NQ]float64) {
	rk := r.ranks[r.ownerOf[si]]
	base := int(r.localOf[si]) * lbm.NQ
	copy(c[:], rk.f[base:base+lbm.NQ])
	return c
}

// TotalMass sums density across all ranks.
func (r *Runner) TotalMass() float64 {
	var m float64
	for _, rk := range r.ranks {
		for _, v := range rk.f {
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
