// Hostmodel: the paper's methodology executed on real hardware — this
// machine. The host is characterized with the genuine microbenchmarks
// (STREAM Copy thread sweep, goroutine PingPong), the direct performance
// model predicts the LBM proxy app's throughput from those fits alone,
// the kernel is actually run and timed, and the mismatch is fed into the
// refinement loop, which learns the host's kernel overhead the same way
// the paper's loop learns the cloud systems'.
//
// Run with: go run ./examples/hostmodel
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/decomp"
	"repro/internal/lbm"
	"repro/internal/monitor"
	"repro/internal/perfmodel"
	"repro/internal/simcloud"
)

func main() {
	fmt.Println("characterizing this machine (STREAM + PingPong)...")
	char, err := perfmodel.CharacterizeHost(1<<24, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("memory model: %s\n", char.Mem)
	fmt.Printf("message link: b=%.0f MB/s, l=%.2f µs\n\n",
		char.Intra.BandwidthMBps, char.Intra.LatencyUS)

	// The workload: the unrolled SOA-AA proxy kernel on a cylinder.
	cfg := lbm.KernelConfig{Layout: lbm.SOA, Pattern: lbm.AA, Unrolled: true}
	proxy, err := lbm.NewProxy(cfg, 64, 10, lbm.Params{Tau: 0.9, Force: [3]float64{1e-5, 0, 0}})
	if err != nil {
		log.Fatal(err)
	}
	// Describe the same lattice for the model via the sparse indexer.
	ref, err := lbm.NewLattice(proxy.Dom, lbm.Params{Tau: 0.9, PeriodicX: true})
	if err != nil {
		log.Fatal(err)
	}
	part, err := decomp.RCB(ref, 1, lbm.ProxyAccess(cfg))
	if err != nil {
		log.Fatal(err)
	}
	w := simcloud.FromPartition("proxy", ref.N(), part)

	pred, err := char.Predict(perfmodel.Request{Model: perfmodel.ModelDirect, Workload: &w})
	if err != nil {
		log.Fatal(err)
	}

	// Measure the real kernel.
	proxy.Run(4) // warm-up
	const steps = 30
	start := time.Now()
	proxy.Run(steps)
	secs := time.Since(start).Seconds()
	measured := lbm.MFLUPS(proxy.FluidPoints(), steps, secs)

	fmt.Printf("predicted from microbenchmarks: %8.2f MFLUPS\n", pred.MFLUPS)
	fmt.Printf("measured on this machine:       %8.2f MFLUPS (ratio %.2fx)\n\n",
		measured, pred.MFLUPS/measured)

	// Close the loop: one recorded run calibrates the host model.
	var store monitor.Store
	sample := monitor.FromPrediction(pred)
	sample.Workload, sample.MFLUPS = "proxy", measured
	if err := store.Add(sample); err != nil {
		log.Fatal(err)
	}
	refined := store.Refine(pred)
	fmt.Printf("after one refinement record:    %8.2f MFLUPS\n", refined.MFLUPS)
	fmt.Println("\nThe raw gap is the host's kernel overhead (instruction issue,")
	fmt.Println("bounds checks, partial cache lines) that a pure bytes-over-")
	fmt.Println("bandwidth model cannot see — the same consistent bias the paper")
	fmt.Println("reports and its iterative refinement removes.")
	if refined.MFLUPS <= 0 {
		log.Fatal("refinement produced a non-positive prediction")
	}
	fmt.Println("OK")
}
