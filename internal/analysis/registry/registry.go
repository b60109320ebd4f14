// Package registry enumerates chantvet's analyzers and is the one driver
// that runs them: the chantvet command and the analysistest harness both
// load packages and call RunAll, so there is one definition of "all checks"
// and one execution discipline — a call graph built over everything loaded,
// packages visited in dependency order, and Finish hooks run once at the
// end for whole-program analyzers.
package registry

import (
	"go/token"
	"sort"

	"chant/internal/analysis"
	"chant/internal/analysis/callgraph"
	"chant/internal/analysis/detlint"
	"chant/internal/analysis/handleleak"
	"chant/internal/analysis/load"
	"chant/internal/analysis/ndtaint"
)

// Analyzers returns every chantvet analyzer, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detlint.Analyzer,
		ndtaint.Analyzer,
		handleleak.Analyzer,
	}
}

// A Finding is one diagnostic with the file set that interprets its
// positions, so drivers can render findings from several loaded packages
// uniformly.
type Finding struct {
	Fset *token.FileSet
	analysis.Diagnostic
}

// Position resolves the finding's location.
func (f Finding) Position() token.Position { return f.Fset.Position(f.Pos) }

// RunAll applies the analyzers to the packages of one load as one program:
// a call graph is built over the whole set, packages are visited in the
// order given (load.Load returns them dependencies first), and each
// analyzer's Finish hook runs once after all packages. What was not loaded
// is not seen: over a sub-tree the call graph, and so ndtaint's verdict,
// covers that sub-tree only. Findings come back sorted by (file, line,
// column, analyzer, message) — a total, deterministic order.
func RunAll(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	graph := callgraph.Build(pkgs)

	var findings []Finding
	passes := make(map[*analysis.Analyzer][]*analysis.Pass)
	for _, pkg := range pkgs {
		fset := pkg.Fset
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Graph:     graph,
				Report: func(d analysis.Diagnostic) {
					findings = append(findings, Finding{Fset: fset, Diagnostic: d})
				},
			}
			passes[a] = append(passes[a], pass)
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			if err := a.Finish(passes[a]); err != nil {
				return nil, err
			}
		}
	}
	sortFindings(findings)
	return findings, nil
}

// sortFindings orders findings by position, then analyzer, then message: a total
// order, so equal runs produce byte-identical output.
func sortFindings(findings []Finding) {
	sort.SliceStable(findings, func(i, j int) bool {
		pi, pj := findings[i].Position(), findings[j].Position()
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if findings[i].Analyzer != findings[j].Analyzer {
			return findings[i].Analyzer < findings[j].Analyzer
		}
		return findings[i].Message < findings[j].Message
	})
}
