// Command chantvet checks the Chant codebase against the runtime's unwritten
// contracts with two analyzers: determinism, bounded spins and lock and
// stale-slot leaks in every package under internal/ but the analyzers
// (detlint), and must-release of pooled messages and receive handles
// (handleleak). What the type system, go vet or the chantdebug runtime
// checks already enforce is left to them: calls into a scheduler from
// outside its domain trip the owner token, counter fields are add-only by
// type, and by-value copies of trace.Counters/trace.Log are go vet's
// copylocks findings. See each analyzer's package documentation for what it
// reports and DESIGN.md's "Correctness tooling" section for the conventions
// (including the //chant:allow-nondet and //chant:allow-leak suppression
// comments) and for what each check catches that nothing else does.
//
// Run it from the module root:
//
//	chantvet ./...
//
// It takes no flags. Every check reads one package at a time, so a sub-tree
// (chantvet ./internal/sim/...) gets exactly the findings a whole-module
// run reports under it. Findings print on stderr as
// `file:line:col: analyzer: message`; the exit status is 2 when there is
// any, 1 when the packages do not load, 0 on a clean tree.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"chant/internal/analysis"
	"chant/internal/analysis/detlint"
	"chant/internal/analysis/handleleak"
	"chant/internal/analysis/load"
)

const usage = "usage: chantvet [packages]   (default ./...)\n"

// analyzers is every chantvet check, in reporting order.
var analyzers = []*analysis.Analyzer{detlint.Analyzer, handleleak.Analyzer}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("chantvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fmt.Fprintf(stderr, "\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "chantvet: %v\n", err)
		return 1
	}
	findings, err := analysis.RunAll(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "chantvet: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(stderr, "%s: %s: %s\n", f.Position(), f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
