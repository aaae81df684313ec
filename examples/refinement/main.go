// Refinement: the iterative model-refinement loop of the paper's title.
// The uncalibrated models overpredict by a consistent amount (the
// simulator charges kernel overhead that a pure bytes/bandwidth model
// cannot see, as the real HARVEY runs did). Every measurement is stored
// with its prediction in the framework's monitor; the correction read
// from those pairs scales the next prediction and the error collapses
// over successive campaign rounds. The store is serialized to JSON the
// way a production deployment would persist it.
//
// Run with: go run ./examples/refinement
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/lbm"
	"repro/internal/machine"
)

func main() {
	fw, err := core.NewFramework(machine.Catalog(), 5, 2024)
	if err != nil {
		log.Fatal(err)
	}
	dom, err := geometry.Aorta(8)
	if err != nil {
		log.Fatal(err)
	}
	anatomy, err := fw.PrepareAnatomy("aorta", dom, lbm.Params{Tau: 0.9, UMax: 0.02})
	if err != nil {
		log.Fatal(err)
	}

	const system = "CSP-2"
	fmt.Printf("%-6s %-8s %12s %12s %10s\n", "round", "ranks", "predicted", "measured", "error")
	rankSchedule := []int{18, 36, 72, 144, 36, 72, 144, 18}
	var firstErr, lastErr float64
	for round, ranks := range rankSchedule {
		pred, meas, err := fw.Observe(anatomy, system, ranks, 50)
		if err != nil {
			log.Fatal(err)
		}
		relErr := (pred.MFLUPS - meas.MFLUPS) / meas.MFLUPS
		fmt.Printf("%-6d %-8d %12.2f %12.2f %+9.1f%%\n",
			round+1, ranks, pred.MFLUPS, meas.MFLUPS, relErr*100)
		if round == 0 {
			firstErr = abs(relErr)
		}
		lastErr = abs(relErr)
	}

	before, after, n := fw.Monitor.MAPE(system, "direct")
	fmt.Printf("\nstored records: %d; MAPE raw %.1f%%, calibrated %.1f%%\n",
		n, before*100, after*100)
	fmt.Printf("first-round error %.1f%%, final-round error %.1f%%\n", firstErr*100, lastErr*100)

	// Persist the store.
	var buf bytes.Buffer
	if err := fw.Monitor.Save(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("record store serialized: %d bytes of JSON\n", buf.Len())
	if lastErr > firstErr {
		log.Fatal("refinement failed to reduce the prediction error")
	}
	fmt.Println("OK: iterative refinement converged")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
