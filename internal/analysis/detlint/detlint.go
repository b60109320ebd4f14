// Package detlint defines the chantvet analyzer that guards the
// determinism of Chant's simulated Paragon: the paper's tables are
// reproduced on a discrete-event simulator whose runs must be bit-for-bit
// repeatable, so the simulation-critical packages must not consult the wall
// clock, global PRNG state, unordered map iteration with side effects,
// multi-case selects, or raw goroutines. The few legitimate wall-clock and
// goroutine sites (the real-mode host, the TCP transport, Table 1's genuine
// microbenchmark timing) carry a `//chant:allow-nondet <reason>` comment.
//
// Detection lives in the shared nondet package (ndtaint seeds its
// interprocedural taint from the same scanner); detlint contributes the
// scope — which packages the contract binds.
package detlint

import (
	"chant/internal/analysis"
	"chant/internal/analysis/nondet"
)

// Analyzer flags nondeterminism sources in simulation-critical packages.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc: "report nondeterminism sources (wall clock, global math/rand, raw " +
		"goroutines, effectful map iteration, multi-case select) and " +
		"unbounded atomic spin loops in Chant's simulation-critical " +
		"packages; suppress legitimate sites with a " +
		"//chant:allow-nondet <reason> comment",
	Run: run,
}

// scope lists the repo-relative package trees whose determinism the paper
// reproductions depend on. A package is in scope when any of these appears
// in its import path (so internal/comm covers internal/comm/tcpnet too).
var scope = []string{
	"internal/sim",
	"internal/ult",
	"internal/core",
	"internal/comm",
	"internal/machine",
	"internal/faults",
	"internal/experiments",
}

// InScope reports whether a package path is simulation-critical.
func InScope(pkgPath string) bool {
	for _, s := range scope {
		if analysis.PathContains(pkgPath, s) || analysis.PathMatches(pkgPath, s) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !InScope(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTest(file) {
			continue
		}
		for _, decl := range file.Decls {
			for _, src := range nondet.Scan(pass, decl) {
				pass.Reportf(src.Pos, "%s in simulation-critical package %s: %s",
					src.What, pass.Pkg.Path(), src.Why)
			}
			checkSpinLoops(pass, decl)
		}
	}
	return nil
}
