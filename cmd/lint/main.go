// Command lint runs the repository's static-analysis suite
// (internal/analyzers) over one or more package patterns and fails on
// any finding not suppressed in source. Every check runs over one typed
// load; DESIGN.md §11 tables the checks and why each is kept.
//
// Usage:
//
//	go run ./cmd/lint [flags] [patterns]
//
//	-format text|json|github   output format; github emits ::error
//	                           workflow annotations for inline PR review
//	-perfbudget                run the compiler-diagnostics perf budget
//	                           over the //lint:hot packages instead of
//	                           the checks
//	-write-perfbudget          regenerate the committed perf budgets
//	                           from current compiler output and exit 0
//
// Patterns are directories or go-style recursive patterns such as
// ./... and ./internal/...; the default is ./... from the current
// directory. The exit status is 0 when there is no finding, 1 when
// there is at least one, 2 on usage or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analyzers"
)

// budgetDir holds the committed perf budgets, one JSON per hot package.
const budgetDir = "internal/analyzers/testdata/perfbudget"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format      = fs.String("format", "text", "output format: text, json or github")
		perfBudget  = fs.Bool("perfbudget", false, "diff compiler escape/bounds diagnostics of hot packages against committed budgets")
		writeBudget = fs.Bool("write-perfbudget", false, "regenerate the committed perf budgets and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(stderr, "lint: unknown format %q (want text, json or github)\n", *format)
		return 2
	}

	if *perfBudget || *writeBudget {
		return runPerfBudget(fs.Args(), *writeBudget, stdout, stderr)
	}

	res, err := analyzers.Run(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		diags := res.Diags
		if diags == nil {
			diags = []analyzers.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	case "github":
		for _, d := range res.Diags {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::%s\n",
				ghProperty(d.File), d.Line, d.Col, ghMessage(fmt.Sprintf("[%s] %s", d.Check, d.Message)))
		}
		fmt.Fprintf(stdout, "lint: %d file(s), %d finding(s)\n", res.Files, len(res.Diags))
	default:
		for _, d := range res.Diags {
			fmt.Fprintln(stdout, d)
		}
		fmt.Fprintf(stdout, "lint: %d file(s), %d finding(s)\n", res.Files, len(res.Diags))
	}
	if len(res.Diags) > 0 {
		return 1
	}
	return 0
}

// runPerfBudget implements -perfbudget / -write-perfbudget: collect
// the compiler escape/bounds inventory of every //lint:hot package on
// the surface and either diff it against the committed budgets or
// rewrite them.
func runPerfBudget(patterns []string, write bool, stdout, stderr io.Writer) int {
	pkgs, err := analyzers.Load(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	hot := analyzers.HotPackages(pkgs)
	if len(hot) == 0 {
		fmt.Fprintln(stdout, "lint: perfbudget: no //lint:hot packages on the surface")
		return 0
	}
	modRoot, err := analyzers.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	failed := false
	for _, pkg := range hot {
		inv, err := analyzers.CollectPerfInventory(modRoot, pkg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		path := filepath.Join(budgetDir, analyzers.BudgetFileName(pkg.Path))
		if write {
			if err := inv.Save(path); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			fmt.Fprintf(stdout, "lint: perfbudget: wrote %s (%d hot function(s))\n", path, len(inv.Functions))
			continue
		}
		budget, err := analyzers.LoadPerfBudget(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		failures, improvements := analyzers.DiffPerfBudget(budget, inv)
		for _, f := range failures {
			fmt.Fprintf(stdout, "lint: perfbudget: FAIL %s\n", f)
			failed = true
		}
		for _, imp := range improvements {
			fmt.Fprintf(stdout, "lint: perfbudget: note %s\n", imp)
		}
		if len(failures) == 0 {
			fmt.Fprintf(stdout, "lint: perfbudget: %s within budget (%d hot function(s))\n", pkg.Path, len(inv.Functions))
		}
	}
	if failed {
		return 1
	}
	return 0
}

// ghMessage escapes a workflow-annotation message per the GitHub
// Actions command syntax.
func ghMessage(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// ghProperty escapes a workflow-annotation property value.
func ghProperty(s string) string {
	s = ghMessage(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
