// Command acacia-vet statically enforces the repo's determinism,
// telemetry and transport contracts (DESIGN.md §3d, §3i).
//
// Per-file rules: virtual time only in sim code (wallclock), trial-seeded
// randomness (globalrand), sorted keys before map iteration feeds output
// (maprange), the layer[/sub]/name metric grammar (metricname) and
// worker-pool-only concurrency (goroutine).
//
// Interprocedural rules, run over a static call graph of every loaded
// package: wall-clock/env/global-rand sinks reachable from sim event
// handlers (dettaint) and compiler-verified escape-freedom of
// //acacia:hotpath functions via `go build -gcflags='-m -m'`
// (hotpath-escape).
//
// Usage:
//
//	acacia-vet [-json] [-rules wallclock,maprange,...] [packages]
//
// Packages default to ./... resolved against the enclosing module. The
// exit status is 0 when the tree is clean, 1 when findings exist, and 2
// when packages fail to load or type-check. Findings are suppressed at
// the site with `//acacia:allow <rule> <reason>`; a directive that
// suppresses nothing is itself reported as stale. Output is sorted by
// (file, line, column, rule) in both text and -json modes, so runs are
// byte-stable and diffable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"acacia/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	ruleList := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: acacia-vet [-json] [-rules r1,r2] [packages]\n\nrules:\n")
		for _, r := range analysis.AllRules() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", r.Name, r.Doc)
		}
	}
	flag.Parse()

	rules, err := analysis.SelectRules(*ruleList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acacia-vet:", err)
		os.Exit(2)
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "acacia-vet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acacia-vet:", err)
		os.Exit(2)
	}
	loadFailed := false
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			loadFailed = true
			fmt.Fprintf(os.Stderr, "acacia-vet: %s: %v\n", pkg.Path, e)
		}
	}
	if loadFailed {
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, rules)
	for i := range diags {
		diags[i].File = relPath(diags[i].File)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "acacia-vet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "acacia-vet: %d finding(s) across %d package(s), rules: %s\n",
			len(diags), len(pkgs), strings.Join(analysis.RuleNames(rules), ","))
		os.Exit(1)
	}
}

// relPath shortens an absolute filename to be relative to the working
// directory when possible, keeping diagnostics readable and stable.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
