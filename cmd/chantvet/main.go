// Command chantvet checks the Chant codebase against the runtime's unwritten
// contracts with three analyzers: determinism, bounded spins and lock and
// stale-slot leaks in the simulation-critical packages (detlint),
// nondeterminism reachable from simulation-critical roots (ndtaint,
// interprocedural over the call graph), and must-release of pooled messages
// and receive handles (handleleak). What the type system, go vet or the
// chantdebug runtime checks already enforce is left to them: calls into a
// scheduler from outside its domain trip the owner token, counter fields are
// add-only by type, and by-value copies of trace.Counters/trace.Log are go
// vet's copylocks findings. See each analyzer's package documentation for
// what it reports and DESIGN.md's "Correctness tooling" section for the
// conventions (including the //chant:allow-nondet and //chant:allow-leak
// suppression comments).
//
// There is one way to run it, from the module root:
//
//	chantvet ./...          # findings as text on stderr
//	chantvet -sarif ./...   # a SARIF 2.1.0 log on stdout (for CI upload)
//
// The named packages (default ./...) are loaded and analyzed as one program.
// Findings print as `file:line:col: analyzer: message`; the exit status is 2
// when there is any, 1 when the packages do not load, 0 on a clean tree.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"chant/internal/analysis/load"
	"chant/internal/analysis/registry"
	"chant/internal/analysis/render"
)

const usage = `usage: chantvet [-sarif] [packages]   (default ./...)

The named packages are analyzed as one program: the call graph, and so
ndtaint's reachability verdict, covers exactly the packages loaded. Pass
./... for the whole-module verdict; a sub-tree run sees that sub-tree only.

`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	analyzers := registry.Analyzers()

	fs := flag.NewFlagSet("chantvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarif := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fs.PrintDefaults()
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
	findings, err := registry.RunAll(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "chantvet: %v\n", err)
		return 1
	}
	if *sarif {
		err = render.SARIF(stdout, findings, analyzers)
	} else {
		err = render.Text(stderr, findings)
	}
	if err != nil {
		fmt.Fprintf(stderr, "chantvet: %v\n", err)
		return 1
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
