// Package detlint defines the chantvet analyzer that guards the
// determinism of Chant's simulated Paragon: the paper's tables are
// reproduced on a discrete-event simulator whose runs must be bit-for-bit
// repeatable, so the simulation-critical packages — every package under
// internal/ except the analyzers themselves — must not consult the wall
// clock, global PRNG state, unordered map iteration with side effects,
// multi-case selects, sync.Pool or raw goroutines (nondet.go). The few
// legitimate wall-clock and goroutine sites (the real-mode host, the TCP
// transport, Table 1's genuine microbenchmark timing) carry a
// `//chant:allow-nondet <reason>` comment.
//
// Over the same packages detlint runs the unbounded-spin check
// (spinloop.go) and the lock and stale-slot leak checks (leaks.go). Every
// check reads one declaration at a time.
package detlint

import "chant/internal/analysis"

// Analyzer flags nondeterminism sources in simulation-critical packages.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc: "report nondeterminism sources (wall clock, global math/rand, raw " +
		"goroutines, effectful map iteration, multi-case select, " +
		"sync.Pool), unbounded atomic spin loops, lock calls with no " +
		"matching unlock in the same function, and append-based compact " +
		"deletes on reference-element slices in every package under " +
		"internal/ but internal/analysis; suppress legitimate sites with a " +
		"//chant:allow-nondet <reason> comment",
	Run: run,
}

// inScope reports whether a package is simulation-critical: any package
// under internal/ except the analyzers, which run on the host only.
func inScope(pkgPath string) bool {
	return analysis.PathContains(pkgPath, "internal") && !analysis.PathContains(pkgPath, "internal/analysis")
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTest(file) {
			continue
		}
		for _, decl := range file.Decls {
			for _, src := range scan(pass, decl) {
				pass.Reportf(src.Pos, "%s in simulation-critical package %s: %s",
					src.What, pass.Pkg.Path(), src.Why)
			}
			checkSpinLoops(pass, decl)
			checkLeaks(pass, decl)
		}
	}
	return nil
}
