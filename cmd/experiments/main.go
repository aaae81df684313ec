// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments              # run everything, in the paper's order
//	experiments fig7 fig9    # run selected artifacts
//	experiments -list        # list artifact IDs
//	experiments -gen-tables  # regenerate the Tier 2 lookup CSV
//	experiments -tiers       # per-tier MAPE report + BENCH_tiers.json
//
// Artifact IDs: table1 fig3 fig4 fig5 table2 fig6 table3 table4 fig7 fig8
// fig9 fig10 fig11, plus ext-gpu, ext-shared and ext-terms: the end-to-end
// checks against simcloud of model inputs the service accepts (DESIGN.md §4).
//
// With -tiers, -tiers-baseline FILE compares Tier 1 MAPE against a
// committed BENCH_tiers.json and exits nonzero on a regression of more
// than tier1MAPETolerancePts percentage points — the CI accuracy gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

// tier1MAPETolerancePts is how many percentage points Tier 1 MAPE may
// drift above the committed baseline before the gate fails.
const tier1MAPETolerancePts = 2.0

// runGenTables writes the regenerated Tier 2 lookup table to path.
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
// JSON, and (with a baseline) gates Tier 1 MAPE.
func runTiers(outPath, baselinePath string) error {
	tbl, err := perfmodel.DefaultTable()
	if err != nil {
		return fmt.Errorf("embedded lookup table: %v", err)
	}
	report, bench, err := experiments.Tiers(tbl)
	if err != nil {
		return err
	}
	fmt.Printf("==== %s — %s ====\n%s\n", report.ID, report.Title, report.Text)
	if !bench.OrderingOK {
		return fmt.Errorf("accuracy ordering violated: want tier2 <= tier1 <= tier0 MAPE")
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
		base, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("baseline: %v", err)
		}
		var baseline experiments.TierBench
		if err := json.Unmarshal(base, &baseline); err != nil {
			return fmt.Errorf("baseline %s: %v", baselinePath, err)
		}
		baseMAPE := baseline.Tiers[perfmodel.Tier1Calibrated].MAPEPct
		gotMAPE := bench.Tiers[perfmodel.Tier1Calibrated].MAPEPct
		if gotMAPE > baseMAPE+tier1MAPETolerancePts {
			return fmt.Errorf("tier1 MAPE regression: %.2f%% vs baseline %.2f%% (tolerance %.1f points)",
				gotMAPE, baseMAPE, tier1MAPETolerancePts)
		}
		fmt.Printf("tier1 MAPE %.2f%% within %.1f points of baseline %.2f%%\n",
			gotMAPE, tier1MAPETolerancePts, baseMAPE)
	}
	return nil
}

var registry = []struct {
	id  string
	run func() (experiments.Report, error)
}{
	{"table1", func() (experiments.Report, error) { return experiments.Table1(), nil }},
	{"fig3", experiments.Fig3},
	{"fig4", experiments.Fig4},
	{"fig5", experiments.Fig5},
	{"table2", experiments.Table2},
	{"fig6", experiments.Fig6},
	{"table3", experiments.Table3},
	{"table4", experiments.Table4},
	{"fig7", experiments.Fig7},
	{"fig8", experiments.Fig8},
	{"fig9", experiments.Fig9},
	{"fig10", experiments.Fig10},
	{"fig11", experiments.Fig11},
	{"ext-gpu", experiments.ExtGPU},
	{"ext-shared", experiments.ExtSharedNode},
	{"ext-terms", experiments.ExtTermSelection},
}

func main() {
	list := flag.Bool("list", false, "list artifact IDs and exit")
	genTables := flag.Bool("gen-tables", false, "regenerate the Tier 2 lookup CSV and exit")
	genTablesOut := flag.String("gen-tables-out", "internal/perfmodel/tables/measured.csv", "output path for -gen-tables")
	tiers := flag.Bool("tiers", false, "run the per-tier MAPE evaluation")
	tiersOut := flag.String("tiers-out", "BENCH_tiers.json", "bench JSON output path for -tiers (empty to skip)")
	tiersBaseline := flag.String("tiers-baseline", "", "committed BENCH_tiers.json to gate tier1 MAPE against")
	flag.Parse()
	if *list {
		for _, e := range registry {
			fmt.Println(e.id)
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
		for _, e := range registry {
			ids = append(ids, e.id)
		}
	}
	for _, id := range ids {
		found := false
		for _, e := range registry {
			if e.id != id {
				continue
			}
			found = true
			r, err := e.run()
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
