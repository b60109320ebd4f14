// Package ndtaint defines chantvet's interprocedural nondeterminism-taint
// analyzer. detlint sees only what a simulation-critical package does
// syntactically; ndtaint sees what it *reaches*: every loaded function is
// scanned for nondeterminism sources (the shared nondet scanner — wall
// clock, global math/rand, raw goroutine spawn, order-sensitive map
// iteration, unordered multi-case select), taint is propagated backward over
// the call graph — through static calls and through the method sets of the
// module's small interfaces — and every call site in a simulation-critical
// root package (internal/sim, internal/faults, internal/comm/simnet) whose
// callee is tainted is reported with the full call chain down to the source.
//
// A //chant:allow-nondet <reason> comment at the source site sanctions the
// source and stops the taint before it starts; the same comment at a root
// call site sanctions that one edge.
//
// Cross-package chains come from the one call graph alone, so the verdict
// covers exactly the packages of the load: a callee outside them has no
// declaration to scan and is taken as clean. `chantvet ./...` loads the
// whole module; a sub-tree run sees only that sub-tree's sources.
package ndtaint

import (
	"go/token"
	"strings"

	"chant/internal/analysis"
	"chant/internal/analysis/nondet"
)

// Analyzer reports nondeterminism transitively reachable from
// simulation-critical roots.
var Analyzer = &analysis.Analyzer{
	Name: "ndtaint",
	Doc: "report calls in simulation-critical root packages (internal/sim, " +
		"internal/faults, internal/comm/simnet, internal/recovery) whose " +
		"callees transitively reach a nondeterminism source; the call chain " +
		"is traced across the loaded packages and through interface method sets",
	Run:    func(*analysis.Pass) error { return nil },
	Finish: finish,
}

// roots lists the package trees whose reachable call graph must be
// deterministic: the simulation kernel, the fault-injection plane, and the
// simulated transport. (The broader detlint scope covers direct sources;
// the roots are where *reachability* matters — a tainted function two hops
// away corrupts the event stream just as surely.)
var roots = []string{
	"internal/sim",
	"internal/faults",
	"internal/comm/simnet",
	// The checkpoint codec and stores must be byte-deterministic: a
	// nondeterministic encoding would give the same machine state two
	// different archived forms, breaking restore-replay identity.
	"internal/recovery",
}

// IsRoot reports whether a package path is a simulation-critical root.
func IsRoot(pkgPath string) bool {
	for _, r := range roots {
		if analysis.PathContains(pkgPath, r) || analysis.PathMatches(pkgPath, r) {
			return true
		}
	}
	return false
}

// taint is the in-flight propagation record for one call-graph node.
type taint struct {
	source string
	chain  []string
}

// finish runs once after every package's pass: it seeds direct sources,
// propagates taint to a fixpoint over the shared call graph, and reports
// tainted call sites in root packages.
func finish(passes []*analysis.Pass) error {
	if len(passes) == 0 {
		return nil
	}
	graph := passes[0].Graph

	// Seed: direct sources per declared function, honoring source-site
	// suppression through each package's own pass.
	taints := make(map[string]*taint)
	for _, pass := range passes {
		for _, node := range graph.PackageNodes(pass.Pkg.Path()) {
			if srcs := nondet.Scan(pass, node.Decl); len(srcs) > 0 {
				taints[node.ID] = &taint{source: srcs[0].What, chain: []string{node.ID}}
			}
		}
	}

	// Propagate to a fixpoint, visiting packages in dependency order and
	// functions in source order so the chosen chains are deterministic.
	for changed := true; changed; {
		changed = false
		for _, pass := range passes {
			for _, node := range graph.PackageNodes(pass.Pkg.Path()) {
				if _, done := taints[node.ID]; done {
					continue
				}
				for _, edge := range node.Edges {
					t := taints[edge.Callee.ID]
					if t == nil {
						continue
					}
					taints[node.ID] = &taint{
						source: t.source,
						chain:  append([]string{node.ID}, t.chain...),
					}
					changed = true
					break
				}
			}
		}
	}

	// Report: every call site in a root package whose callee is tainted.
	// Interface calls fan one site into several edges; report each site
	// once, for its first tainted resolution. (A direct source inside the
	// function is no edge at all: that is detlint's report, not ndtaint's.)
	for _, pass := range passes {
		if !IsRoot(pass.Pkg.Path()) {
			continue
		}
		for _, node := range graph.PackageNodes(pass.Pkg.Path()) {
			reported := make(map[token.Pos]bool)
			for _, edge := range node.Edges {
				t := taints[edge.Callee.ID]
				if t == nil || reported[edge.Site] {
					continue
				}
				reported[edge.Site] = true
				pass.Reportf(edge.Site,
					"call into tainted %s: %s reaches %s, which is nondeterministic and transitively reachable from simulation-critical package %s; fix the source or annotate it with //chant:allow-nondet <reason>",
					shortID(edge.Callee.ID), chainString(t), t.source, pass.Pkg.Path())
			}
		}
	}

	return nil
}

// chainString renders a taint chain for a diagnostic: short function names
// joined by arrows.
func chainString(t *taint) string {
	parts := make([]string, len(t.chain))
	for i, id := range t.chain {
		parts[i] = shortID(id)
	}
	return strings.Join(parts, " → ")
}

// shortID compresses "chant/internal/util.WallNow" to "util.WallNow".
func shortID(id string) string {
	slash := strings.LastIndex(id, "/")
	return id[slash+1:]
}
