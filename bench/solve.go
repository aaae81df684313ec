package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/decomp"
	"repro/internal/lbm"
	"repro/internal/mbench"
	"repro/internal/par"
)

// sameState reports whether the two engines hold the same distributions,
// bit for bit.
func sameState(s *lbm.Sparse, r *par.Runner) bool {
	for si := 0; si < s.N(); si++ {
		a, b := s.Cell(si), r.Cell(si)
		for q := range a {
			if math.Float64bits(a[q]) != math.Float64bits(b[q]) {
				return false
			}
		}
	}
	return true
}

// runLBMSolve alternates blocks of serial lbm.Sparse steps and the same
// steps on par.Runner over an nproc-rank RCB, both from the same initial
// state, until each engine has made solveSteps and the window has closed.
// After every pair of blocks the two engines must hold bitwise the same
// distributions: the oracle of par's TestParallelMatchesSerialBitwise.
func runLBMSolve(c *child) error {
	gs := time.Now()
	dom, err := campaign.BuildGeometry("aorta", sz.solveScale)
	if err != nil {
		return err
	}
	geomD := time.Since(gs)
	ss := time.Now()
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		return err
	}
	sparseD := time.Since(ss)
	access := lbm.HarveyAccess()
	rs := time.Now()
	part, err := decomp.RCB(s, c.nproc, access)
	if err != nil {
		return err
	}
	rcbD := time.Since(rs)
	runner, err := par.NewRunner(s, part)
	if err != nil {
		return err
	}
	mass0 := s.TotalMass()

	c.begin()
	var serialD, parD time.Duration
	// Sized now: the harness must not allocate inside the window, where a
	// step allocates less than one object.
	stepMS := make([]float64, 0, 1<<12)
	slices := make([]sliceStat, 0, 1<<9)
	steps, okSteps := 0, 0
	// A block is one slice of the window: blockSteps on each engine, then
	// the comparison of the two states, which is not timed.
	for steps < 2*sz.solveSteps || time.Since(c.t0) < c.window {
		from := c.lap()
		h := c.rec.begin(c.root, "lbm.sparse_steps")
		for i := 0; i < sz.blockSteps; i++ {
			t := time.Now()
			s.Step()
			d := time.Since(t)
			serialD += d
			stepMS = append(stepMS, ms(d))
		}
		h.end()
		h = c.rec.begin(c.root, "par.runner_steps")
		t := time.Now()
		runner.Run(sz.blockSteps)
		d := time.Since(t)
		parD += d
		h.end()
		to := c.lap()
		block := stepMS[len(stepMS)-sz.blockSteps:] // sorted in place: only quantiles are read from stepMS
		sort.Float64s(block)
		slices = append(slices, sliceStat{
			throughput: float64(sz.blockSteps) / d.Seconds(),
			p50:        quantile(block, 0.50),
			tail:       quantile(block, c.wl.tailPct/100),
			cpuPerOp:   cpuSince(from, to, 2*sz.blockSteps),
		})
		steps += 2 * sz.blockSteps
		if sameState(s, runner) {
			okSteps += 2 * sz.blockSteps
		} else {
			c.fail("par.Runner state differs from the serial state after %d steps", s.Steps())
		}
	}
	c.end()

	// Physical sanity of the solution the timing was taken on. The aorta
	// has an inlet and outlets, so total mass is not conserved; what must
	// hold is that the two engines agree on it to reduction order and that
	// neither has drifted far from where it started.
	serialMass, parMass := s.TotalMass(), runner.TotalMass()
	if rel := math.Abs(parMass-serialMass) / serialMass; rel > 1e-10 {
		c.fail("mass: par %.17g against serial %.17g, relative %.3g", parMass, serialMass, rel)
		okSteps = 0
	}
	if drift := math.Abs(serialMass-mass0) / mass0; drift > 1e-2 {
		c.fail("mass drifted by %.3g of its initial value in %d steps", drift, s.Steps())
		okSteps = 0
	}
	if v := s.MaxSpeed(); v >= 0.1 || math.IsNaN(v) {
		c.fail("max speed %.4g is not below 0.1", v)
		okSteps = 0
	}

	n := float64(s.N())
	perEngine := float64(steps / 2)
	c.finish(steps, okSteps, slices, stepMS)
	solveMFLUPS := n * perEngine / serialD.Seconds() / 1e6
	parMFLUPS := n * perEngine / parD.Seconds() / 1e6
	c.extra("solve_mflups", solveMFLUPS)
	c.extra("par_mflups", parMFLUPS)
	c.extra("fluid_points", n)
	// The state is a function of the step count, which differs between
	// repetitions; the initial decomposition does not.
	c.res.Digest = fmt.Sprintf("N=%d halo=%g", s.N(), haloBytes(part))
	if c.rec != nil {
		return kernelLadder(c, s, part, runner, []rung{
			{"campaign.build_geometry", geomD}, {"lbm.new_sparse", sparseD}, {"decomp.rcb_nproc", rcbD},
		}, solveMFLUPS, parMFLUPS)
	}
	return nil
}

func haloBytes(p *decomp.Partition) float64 {
	var b float64
	for i := range p.Tasks {
		b += p.Tasks[i].TotalSendBytes()
	}
	return b
}

// cacheSizes reads cpu0's cache sizes from sysfs, e.g. "L1d 48K, L2 4096K".
func cacheSizes() string {
	var out []string
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err1 := os.ReadFile(dir + "level")
		size, err2 := os.ReadFile(dir + "size")
		kind, err3 := os.ReadFile(dir + "type")
		if err1 != nil || err2 != nil || err3 != nil {
			break
		}
		name := "L" + strings.TrimSpace(string(level))
		switch strings.TrimSpace(string(kind)) {
		case "Data":
			name += "d"
		case "Instruction":
			name += "i"
		}
		out = append(out, name+" "+strings.TrimSpace(string(size)))
	}
	if len(out) == 0 {
		return "unknown"
	}
	return strings.Join(out, ", ")
}

// kernelLadder is lbm_solve's: the kernel against the host's own STREAM
// ceiling measured in the same run (P = b_s / B_loop), the proxy kernels,
// the decomposition, and par.Runner's communication share.
func kernelLadder(c *child, s *lbm.Sparse, part *decomp.Partition, runner *par.Runner, setup []rung, solveMFLUPS, parMFLUPS float64) error {
	access := lbm.HarveyAccess()
	n := float64(s.N())
	_, stepAllocs := measure(sz.rungBudget, s.Step)
	_, parAllocs := measure(sz.rungBudget, func() { runner.Run(1) })
	bytesPerUpdate := s.BytesSerial(access) / n // computed from the access model, not measured
	copyMBps, err := mbench.StreamHost(mbench.Copy, c.nproc, sz.streamElems, 5)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: STREAM copy over %d-element arrays (%d MiB each); caches: %s\n",
		sz.streamElems, sz.streamElems*8>>20, cacheSizes())
	copyGBps := copyMBps / 1e3

	proxy := func(cfg lbm.KernelConfig) (float64, error) {
		p, err := lbm.NewProxy(cfg, 64, 10, lbm.Params{Tau: 0.9, Force: [3]float64{1e-5, 0, 0}})
		if err != nil {
			return 0, err
		}
		p.Run(2) // warm both AA phases
		d, _ := measure(sz.rungBudget, p.Step)
		return float64(p.FluidPoints()) / d.Seconds() / 1e6, nil
	}
	soaAA, err := proxy(lbm.KernelConfig{Layout: lbm.SOA, Pattern: lbm.AA, Unrolled: true})
	if err != nil {
		return err
	}
	aosAB, err := proxy(lbm.KernelConfig{Layout: lbm.AOS, Pattern: lbm.AB})
	if err != nil {
		return err
	}
	rcb128D, _ := measure(sz.rungBudget, func() {
		if _, err := decomp.RCB(s, 128, access); err != nil {
			c.fail("ladder RCB 128: %v", err)
		}
	})
	pingUS, err := mbench.PingPongHost(4096, 2000)
	if err != nil {
		return err
	}
	var computeS, commS float64
	for _, st := range runner.Stats() {
		computeS, commS = computeS+st.ComputeS, commS+st.CommS
	}

	c.layer("lbm.sparse_step_mflups", solveMFLUPS)
	c.layer("lbm.sparse_bytes_per_update", bytesPerUpdate)
	c.layer("mbench.stream_copy_gbps", copyGBps)
	c.layer("lbm.sparse_roofline_frac", solveMFLUPS*1e6*bytesPerUpdate/(copyGBps*1e9))
	c.layer("lbm.proxy_soa_aa_unrolled_mflups", soaAA)
	c.layer("lbm.proxy_aos_ab_mflups", aosAB)
	c.layer("lbm.step_allocs", stepAllocs)
	c.layer("decomp.rcb_128_ms", ms(rcb128D))
	c.layer("decomp.imbalance", part.Imbalance())
	c.layer("decomp.halo_bytes_per_step", haloBytes(part)) // computed from the partition, exact
	c.layer("par.runner_mflups", parMFLUPS)
	c.layer("par.speedup", parMFLUPS/solveMFLUPS)
	c.layer("par.comm_frac", commS/(computeS+commS))
	c.layer("par.step_allocs", parAllocs)
	c.layer("mbench.pingpong_4k_us", pingUS)
	for _, g := range setup { // a set-up stage's metric is its rung's name in milliseconds
		c.layer(g.name+"_ms", ms(g.dur))
		c.rec.replay(c.root, true, []rung{g})
	}
	c.rec.replay(c.root, true, []rung{{"decomp.rcb_128", rcb128D}})
	return nil
}
