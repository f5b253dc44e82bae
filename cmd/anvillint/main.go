// Command anvillint checks the repository against the simulator's
// determinism and correctness invariants. It bundles the analyzers from
// internal/lint:
//
//	errpanic  — no panic/log.Fatal reachable from exported zone APIs
//	jsondet   — no map/interface fields in JSON marshalled from zone code
//	maporder  — no order-dependent bodies under map iteration
//	randshare — no *sim.Rand shared across component constructors
//	seedflow  — zone sim.Rand seeds derive from Spec state; no ambient RNG imports
//	tickconv  — no narrowing conversions of sim.Cycles counters
//	wallclock — no host-clock reads reachable from deterministic-zone code
//
// errpanic, jsondet, seedflow and wallclock propagate facts across package
// boundaries through one in-memory store; packages opt in via
// "//lint:zone deterministic" directives or the built-in zone map for
// internal/{machine,cache,dram,...} (see internal/lint/zone.go).
//
// Usage:
//
//	go run ./cmd/anvillint ./...
//	go run ./cmd/anvillint -json ./internal/dram
//
// Patterns are resolved within the enclosing module; nested modules are
// skipped, as go list skips them.
//
// Findings are suppressed line-by-line with "//lint:allow <analyzer> <why>"
// directives; see internal/lint for the exact semantics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/errpanic"
	"repro/internal/lint/jsondet"
	"repro/internal/lint/maporder"
	"repro/internal/lint/randshare"
	"repro/internal/lint/seedflow"
	"repro/internal/lint/tickconv"
	"repro/internal/lint/wallclock"
)

var analyzers = []*lint.Analyzer{
	errpanic.Analyzer,
	jsondet.Analyzer,
	maporder.Analyzer,
	randshare.Analyzer,
	seedflow.Analyzer,
	tickconv.Analyzer,
	wallclock.Analyzer,
}

func main() {
	// The audited single exit: run's status code leaves the process here.
	os.Exit(run())
}

// run lints the packages named on the command line and returns the process
// exit code: 0 clean, 1 findings, 2 usage or load failure.
func run() int {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON")
	flag.Parse()

	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "anvillint:", err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anvillint:", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anvillint:", err)
		return 2
	}

	if *jsonFlag {
		if err := writeJSON(os.Stdout, diags, relPath); err != nil {
			fmt.Fprintln(os.Stderr, "anvillint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s (%s)\n",
				relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "anvillint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// writeJSON renders diagnostics as a machine-readable array — one object
// per finding with file/line/column/analyzer/message — for CI annotation
// pipelines. rel maps absolute filenames to display paths; output paths are
// always slash-separated.
func writeJSON(w io.Writer, diags []lint.Diagnostic, rel func(string) string) error {
	type jsonDiag struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File: filepath.ToSlash(rel(d.Pos.Filename)), Line: d.Pos.Line, Column: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	if rel, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return p
}
