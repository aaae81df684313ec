// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments              # run everything, in the paper's order
//	experiments fig7 fig9    # run selected artifacts
//	experiments -list        # list artifact IDs
//	experiments -gen-tables  # regenerate the Tier 2 efficiency CSV
//	experiments -tiers       # per-tier MAPE report + BENCH_tiers.json
//
// Artifact IDs are experiments.Artifacts, in order (-list prints them):
// the paper's tables and figures, then ext-gpu and ext-shared, the
// end-to-end checks against simcloud of model inputs the service accepts,
// and ext-terms, the per-term re-fit of the model against measurements
// (DESIGN.md §4).
//
// With -tiers, -tiers-baseline FILE compares the overall MAPE of every
// tier and of each held-out Tier 2 score, for the direct and the
// generalized model, against a committed BENCH_tiers.json and exits nonzero when any regresses by more than
// mapeTolerancePts percentage points — the CI accuracy gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

// mapeTolerancePts is how many percentage points any tier's MAPE, held
// out or not, may drift above the committed baseline before the gate
// fails.
const mapeTolerancePts = 2.0

// runGenTables writes the regenerated Tier 2 efficiency table to path.
func runGenTables(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.GenerateTable(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runTiers evaluates all tiers, prints the report, writes the bench
// JSON, and (with a baseline) gates every entry's MAPE: each tier's and
// each held-out Tier 2 score's, of either model.
func runTiers(outPath, baselinePath string) error {
	tbl, err := perfmodel.DefaultTable()
	if err != nil {
		return fmt.Errorf("embedded Tier 2 table: %v", err)
	}
	report, bench, err := experiments.Tiers(tbl)
	if err != nil {
		return err
	}
	fmt.Printf("==== %s — %s ====\n%s\n", report.ID, report.Title, report.Text)
	if !bench.OrderingOK {
		return fmt.Errorf("accuracy ordering violated: want %s <= tier1 <= tier0 MAPE for either model", experiments.Tier2LeaveOneOut)
	}
	if outPath != "" {
		buf, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("baseline: %v", err)
		}
		var baseline experiments.TierBench
		if err := json.Unmarshal(raw, &baseline); err != nil {
			return fmt.Errorf("baseline %s: %v", baselinePath, err)
		}
		tiers := make([]string, 0, len(bench.Tiers))
		for tier := range bench.Tiers {
			tiers = append(tiers, tier)
		}
		sort.Strings(tiers)
		for _, tier := range tiers {
			base, ok := baseline.Tiers[tier]
			if !ok {
				return fmt.Errorf("baseline %s has no %s block", baselinePath, tier)
			}
			got := bench.Tiers[tier].MAPEPct
			if got > base.MAPEPct+mapeTolerancePts {
				return fmt.Errorf("%s MAPE regression: %.2f%% vs baseline %.2f%% (tolerance %.1f points)",
					tier, got, base.MAPEPct, mapeTolerancePts)
			}
			fmt.Printf("%s MAPE %.2f%% within %.1f points of baseline %.2f%%\n",
				tier, got, mapeTolerancePts, base.MAPEPct)
		}
	}
	return nil
}

func main() {
	list := flag.Bool("list", false, "list artifact IDs and exit")
	genTables := flag.Bool("gen-tables", false, "regenerate the Tier 2 efficiency CSV and exit")
	genTablesOut := flag.String("gen-tables-out", "internal/perfmodel/tables/measured.csv", "output path for -gen-tables")
	tiers := flag.Bool("tiers", false, "run the per-tier MAPE evaluation")
	tiersOut := flag.String("tiers-out", "BENCH_tiers.json", "bench JSON output path for -tiers (empty to skip)")
	tiersBaseline := flag.String("tiers-baseline", "", "committed BENCH_tiers.json to gate every tier's MAPE against")
	flag.Parse()
	if *list {
		for _, a := range experiments.Artifacts {
			fmt.Println(a.ID)
		}
		return
	}
	if *genTables {
		if err := runGenTables(*genTablesOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -gen-tables: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tiers {
		if err := runTiers(*tiersOut, *tiersBaseline); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -tiers: %v\n", err)
			os.Exit(1)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		for _, a := range experiments.Artifacts {
			ids = append(ids, a.ID)
		}
	}
	for _, id := range ids {
		found := false
		for _, a := range experiments.Artifacts {
			if a.ID != id {
				continue
			}
			found = true
			r, err := a.Run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Printf("==== %s — %s ====\n%s\n", r.ID, r.Title, r.Text)
		}
		if !found {
			fmt.Fprintf(os.Stderr, "experiments: unknown artifact %q (use -list)\n", id)
			os.Exit(2)
		}
	}
}
