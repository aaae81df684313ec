// Command campaign executes a declarative simulation campaign: a JSON
// config of patient cases, a budget and an objective. For each case the
// framework characterizes the catalog (once), tunes the model, picks an
// instance, runs the job with guards, and reports a spend summary.
//
// SIGINT/SIGTERM interrupt the campaign at the next clean point between
// jobs: the partial summary (every completed job's spend and telemetry)
// is still rendered, and the process exits non-zero.
//
// Usage:
//
//	campaign -config campaign.json
//	campaign -example            # print a starter config and exit
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machine"
)

const exampleConfig = `{
  "seed": 1,
  "budget_usd": 2.0,
  "objective": "min-cost",
  "deadline_seconds": 120,
  "retries": 10,
  "jobs": [
    {"name": "patient-a-aorta", "geometry": "aorta", "scale": 8, "ranks": 64, "steps": 5000},
    {"name": "patient-b-cerebral", "geometry": "cerebral", "scale": 7, "ranks": 64, "steps": 5000},
    {"name": "batch-cylinder-spot", "geometry": "cylinder", "scale": 10, "ranks": 32,
     "steps": 8000, "system": "CSP-2 Small", "spot": true},
    {"name": "coronary-physical", "geometry": "stenosis", "ranks": 32,
     "physical": {"diameter_mm": 3, "peak_speed_ms": 0.3, "heart_rate_hz": 1.2,
                  "sites_across": 20, "beats": 0.01}}
  ]
}
`

func main() {
	path := flag.String("config", "", "campaign configuration file (JSON)")
	example := flag.Bool("example", false, "print a starter configuration and exit")
	gpu := flag.Bool("gpu", false, "include the GPU instance type in the catalog")
	flag.Parse()

	if *example {
		fmt.Print(exampleConfig)
		return
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "campaign: -config is required (try -example)")
		os.Exit(2)
	}
	f, err := os.Open(*path)
	fatal(err)
	defer f.Close()
	cfg, err := campaign.Load(f)
	fatal(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	systems := machine.Catalog()
	if *gpu {
		systems = machine.FullCatalog()
	}
	fmt.Printf("characterizing %d instance types...\n", len(systems))
	fw, err := core.NewFramework(systems, 5, cfg.Seed)
	fatal(err)

	outcome, err := campaign.Runner{Backend: campaign.BackendSerial}.Run(ctx, fw, cfg)
	interrupted := errors.Is(err, campaign.ErrInterrupted)
	if err != nil && !interrupted {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(outcome.Render())

	// Post-campaign accuracy report from the monitor's Tier 1 samples.
	for _, sys := range systems {
		if before, after, n := fw.Monitor.MAPE(sys.Abbrev, "direct"); n > 0 {
			fmt.Printf("model accuracy on %s: MAPE %.1f%% raw, %.1f%% calibrated (%d runs)\n",
				sys.Abbrev, before*100, after*100, n)
		}
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "campaign: interrupted; partial results above")
		os.Exit(1)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}
