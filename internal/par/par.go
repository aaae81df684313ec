// Package par executes a decomposed LBM simulation in parallel: one
// goroutine per task ("rank"), halo values exchanged over channels, no
// shared mutable state between ranks. It is the MPI-substrate of this
// reproduction — the same owner-computes structure, pairwise halo
// messages, and double-buffered communication a distributed HARVEY run
// uses, so the per-task byte and message counts the performance models
// consume are exercised by real concurrent execution.
//
// Each rank's site update applies arithmetic identical to the serial
// lbm.Sparse engine, so a parallel run reproduces the serial result
// bitwise regardless of rank count — the key correctness oracle.
package par

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/decomp"
	"repro/internal/geometry"
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

// rank is the per-goroutine state of one task.
type rank struct {
	id  int
	own []int32 // serial site indices owned, ascending

	computeNS int64 // accumulated compute time
	commNS    int64 // accumulated communication time

	f, fnew []float64 // nOwn*NQ distributions, AOS

	// src drives streaming: for flat slot (i*NQ+q) it encodes where the
	// post-collision value comes from:
	//   >= 0   local flat index into f
	//   -1     bounce-back (read f[i*NQ+Opp[q]])
	//   <= -2  remote: recv[-(src+2)] in the rank's flat receive space
	src []int32

	types  []geometry.PointType
	inletU []float64

	// Communication schedule.
	sendTo   []sendPlan // outgoing edges, sorted by peer
	recvFrom []recvPlan // incoming edges, sorted by peer
	recv     []float64  // flat receive space, one slot per incoming link
}

// sendPlan gathers local post-collision values into an edge buffer.
type sendPlan struct {
	peer    int
	e       *edge
	srcFlat []int32 // local flat indices (ownerLocal*NQ+q), canonical order
}

// recvPlan scatters an incoming message into the flat receive space.
type recvPlan struct {
	peer int
	e    *edge
	base int // first slot in recv for this edge
	n    int
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
// distributions become the initial condition) and partition p.
func NewRunner(s *lbm.Sparse, p *decomp.Partition) (*Runner, error) {
	if len(p.Owner) != s.N() {
		return nil, fmt.Errorf("par: partition covers %d sites, lattice has %d", len(p.Owner), s.N())
	}
	r := &Runner{
		params:  s.Params,
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
	for si := 0; si < s.N(); si++ {
		t := int(p.Owner[si])
		r.localOf[si] = int32(len(r.ranks[t].own))
		r.ranks[t].own = append(r.ranks[t].own, int32(si))
	}

	// Canonical link ordering per directed edge (sender -> receiver):
	// ascending (receiverSerialSite, q). Build once, shared by both ends.
	type link struct {
		recvSite int32 // serial index of the receiving (pulling) site
		q        int   // direction being pulled
		sendSite int32 // serial index of the upstream site (owned by sender)
	}
	links := make(map[[2]int][]link) // [sender, receiver] -> links
	for si := 0; si < s.N(); si++ {
		recvT := int(p.Owner[si])
		for q := 0; q < lbm.NQ; q++ {
			up := s.Neighbor(si, lbm.Opp[q]) // upstream site for pulling q
			if up < 0 {
				continue
			}
			sendT := int(p.Owner[up])
			if sendT == recvT {
				continue
			}
			key := [2]int{sendT, recvT}
			links[key] = append(links[key], link{recvSite: int32(si), q: q, sendSite: int32(up)})
		}
	}
	for key := range links {
		ls := links[key]
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].recvSite != ls[j].recvSite {
				return ls[i].recvSite < ls[j].recvSite
			}
			return ls[i].q < ls[j].q
		})
	}

	// Per-rank arrays, stream source tables, and communication plans.
	remoteSlot := make(map[[3]int32]int) // (receiver, site, q) -> flat recv slot
	for t, rk := range r.ranks {
		n := len(rk.own)
		rk.f = make([]float64, n*lbm.NQ)
		rk.fnew = make([]float64, n*lbm.NQ)
		rk.src = make([]int32, n*lbm.NQ)
		rk.types = make([]geometry.PointType, n)
		rk.inletU = make([]float64, n)
		for i, si := range rk.own {
			cell := s.Cell(int(si))
			copy(rk.f[i*lbm.NQ:(i+1)*lbm.NQ], cell[:])
			rk.types[i] = s.Type(int(si))
			rk.inletU[i] = s.InletVelocity(int(si))
		}
		// Incoming edges first: they assign receive slots.
		peers := make([]int, 0)
		for key := range links {
			if key[1] == t {
				peers = append(peers, key[0])
			}
		}
		sort.Ints(peers)
		for _, peer := range peers {
			ls := links[[2]int{peer, t}]
			plan := recvPlan{peer: peer, base: len(rk.recv), n: len(ls)}
			for k, l := range ls {
				remoteSlot[[3]int32{int32(t), l.recvSite, int32(l.q)}] = plan.base + k
			}
			rk.recv = append(rk.recv, make([]float64, len(ls))...)
			rk.recvFrom = append(rk.recvFrom, plan)
		}
	}

	// Stream source tables (need remoteSlot fully populated).
	for t, rk := range r.ranks {
		for i, si := range rk.own {
			for q := 0; q < lbm.NQ; q++ {
				up := s.Neighbor(int(si), lbm.Opp[q])
				switch {
				case up < 0:
					rk.src[i*lbm.NQ+q] = -1
				case int(p.Owner[up]) == t:
					rk.src[i*lbm.NQ+q] = r.localOf[up]*lbm.NQ + int32(q)
				default:
					slot, ok := remoteSlot[[3]int32{int32(t), si, int32(q)}]
					if !ok {
						return nil, fmt.Errorf("par: missing receive slot for rank %d site %d dir %d", t, si, q)
					}
					rk.src[i*lbm.NQ+q] = int32(-2 - slot)
				}
			}
		}
	}

	// Outgoing edges: channels plus gather tables matching the canonical
	// link order the receiver assigned slots in.
	for key, ls := range links {
		sendT, recvT := key[0], key[1]
		e := &edge{ch: make(chan []float64, 1)}
		e.bufs[0] = make([]float64, len(ls))
		e.bufs[1] = make([]float64, len(ls))
		sp := sendPlan{peer: recvT, e: e, srcFlat: make([]int32, len(ls))}
		for k, l := range ls {
			sp.srcFlat[k] = r.localOf[l.sendSite]*lbm.NQ + int32(l.q)
		}
		sender := r.ranks[sendT]
		sender.sendTo = append(sender.sendTo, sp)
		receiver := r.ranks[recvT]
		for pi := range receiver.recvFrom {
			if receiver.recvFrom[pi].peer == sendT {
				receiver.recvFrom[pi].e = e
			}
		}
	}
	for _, rk := range r.ranks {
		sort.Slice(rk.sendTo, func(i, j int) bool { return rk.sendTo[i].peer < rk.sendTo[j].peer })
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

// step is one rank-local timestep: collide, exchange halos, stream, apply
// boundary conditions — arithmetic identical to lbm.Sparse.Step.
func (rk *rank) step(p lbm.Params, stepIndex int, now Clock) {
	fx, fy, fz := p.Force[0], p.Force[1], p.Force[2]
	n := len(rk.own)
	tick := now()

	var cell [lbm.NQ]float64
	for i := 0; i < n; i++ {
		base := i * lbm.NQ
		copy(cell[:], rk.f[base:base+lbm.NQ])
		lbm.CollideCell(&cell, p, fx, fy, fz)
		copy(rk.f[base:base+lbm.NQ], cell[:])
	}

	rk.computeNS += now().Sub(tick).Nanoseconds()
	tick = now()

	// Post-collision halo exchange.
	for _, sp := range rk.sendTo {
		buf := sp.e.nextBuf()
		for k, flat := range sp.srcFlat {
			buf[k] = rk.f[flat]
		}
		sp.e.ch <- buf
	}
	for _, rp := range rk.recvFrom {
		msg := <-rp.e.ch
		copy(rk.recv[rp.base:rp.base+rp.n], msg)
	}

	rk.commNS += now().Sub(tick).Nanoseconds()
	tick = now()

	// Pull streaming.
	for i := 0; i < n; i++ {
		base := i * lbm.NQ
		for q := 0; q < lbm.NQ; q++ {
			switch src := rk.src[base+q]; {
			case src >= 0:
				rk.fnew[base+q] = rk.f[src]
			case src == -1:
				rk.fnew[base+q] = rk.f[base+lbm.Opp[q]]
			default:
				rk.fnew[base+q] = rk.recv[-(src + 2)]
			}
		}
	}

	// Boundary conditions.
	if !p.PeriodicX {
		var bc [lbm.NQ]float64
		scale := p.Pulsatile.Scale(stepIndex)
		for i := 0; i < n; i++ {
			switch rk.types[i] {
			case geometry.Inlet:
				lbm.Equilibrium(1, rk.inletU[i]*scale, 0, 0, &bc)
				copy(rk.fnew[i*lbm.NQ:(i+1)*lbm.NQ], bc[:])
			case geometry.Outlet:
				base := i * lbm.NQ
				copy(cell[:], rk.fnew[base:base+lbm.NQ])
				_, ux, uy, uz := lbm.Moments(&cell)
				lbm.Equilibrium(1, ux, uy, uz, &bc)
				copy(rk.fnew[base:base+lbm.NQ], bc[:])
			}
		}
	}

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

// Steps returns the number of completed parallel timesteps.
func (r *Runner) Steps() int { return r.steps }

// Cell returns the distribution at serial site si after the last Run.
func (r *Runner) Cell(si int) (c [lbm.NQ]float64) {
	rk := r.ranks[r.ownerOf[si]]
	base := int(r.localOf[si]) * lbm.NQ
	copy(c[:], rk.f[base:base+lbm.NQ])
	return c
}

// Macro returns density and velocity at serial site si.
func (r *Runner) Macro(si int) (rho, ux, uy, uz float64) {
	c := r.Cell(si)
	return lbm.Moments(&c)
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

// WriteBack copies the parallel state into the serial engine s, which must
// be the engine the runner was built from (or an identically shaped one).
func (r *Runner) WriteBack(s *lbm.Sparse) {
	for si := 0; si < len(r.ownerOf); si++ {
		s.SetCell(si, r.Cell(si))
	}
}
