// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough framework to write chantvet's
// checkers against (the container image carries no module proxy, so the real
// x/tools package is not available). An Analyzer inspects one type-checked
// package at a time through a Pass and reports Diagnostics; no check looks
// past the package it is given, so a run over a sub-tree reports exactly
// what a whole-module run reports under that sub-tree. One function runs
// the analyzers, RunAll, and it loads nothing itself: the chantvet command
// and the analysistest harness both hand it the packages of one load.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"chant/internal/analysis/load"
)

// An Analyzer describes one chantvet check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph description printed by chantvet -h.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// Marker overrides the suppression comment this analyzer honors;
	// empty means the default "allow-nondet". handleleak, whose findings
	// are resource leaks rather than nondeterminism, uses "allow-leak".
	Marker string
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic. The driver installs it; analyzers
	// call Reportf instead.
	Report func(Diagnostic)

	// suppress indexes the analyzer's suppression comments: filename ->
	// line -> whether the comment stands alone on its line.
	suppress map[string]map[int]bool
}

// A Diagnostic is one finding, attached to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a diagnostic at pos unless a suppression comment with the
// analyzer's marker covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Suppressed(pos) {
		return
	}
	p.Report(Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Suppressed reports whether pos is covered by the analyzer's suppression
// comment (//chant:<marker> <reason>, the marker "allow-nondet" unless
// Analyzer.Marker says otherwise) — with a non-empty reason, so silenced
// diagnostics stay explained — either trailing on the same line or alone on
// the line immediately above.
func (p *Pass) Suppressed(pos token.Pos) bool {
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	if p.suppress == nil {
		p.suppress = p.markerLines()
	}
	lines, line := p.suppress[tf.Name()], tf.Line(pos)
	if _, same := lines[line]; same {
		return true
	}
	return lines[line-1] // only a comment alone on its line reaches down
}

// markerLines indexes, per file, the lines carrying a well-formed
// suppression comment for the analyzer's marker; the value records whether
// the comment is the first token on its line (a trailing comment covers its
// own line only).
func (p *Pass) markerLines() map[string]map[int]bool {
	marker := "allow-nondet"
	if p.Analyzer.Marker != "" {
		marker = p.Analyzer.Marker
	}
	re := regexp.MustCompile(`^//chant:` + regexp.QuoteMeta(marker) + `\s+\S`)
	byFile := make(map[string]map[int]bool)
	for _, f := range p.Files {
		tf := p.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		var code map[int]bool // built on the first marker comment in the file
		lines := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !re.MatchString(c.Text) {
					continue
				}
				if code == nil {
					code = codeLines(tf, f)
				}
				line := tf.Line(c.Pos())
				lines[line] = !code[line]
			}
		}
		byFile[tf.Name()] = lines
	}
	return byFile
}

// codeLines reports the lines of f on which a syntax node starts or ends,
// i.e. the lines where a // comment can only be trailing.
func codeLines(tf *token.File, f *ast.File) map[int]bool {
	code := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup, *ast.Comment:
			return false
		}
		code[tf.Line(n.Pos())] = true
		code[tf.Line(n.End()-1)] = true
		return true
	})
	return code
}

// IsTest reports whether file is a _test.go file. Chantvet's contracts bind
// the simulation code itself; test harnesses legitimately drive schedulers
// from plain goroutines and race real-time timeouts against them, so every
// analyzer skips test files.
func (p *Pass) IsTest(file *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(file.Package).Filename, "_test.go")
}

// PathContains reports whether the repo-relative path want appears as a
// segment run anywhere in pkgPath: "internal/comm" matches
// "chant/internal/comm", "chant/internal/comm/tcpnet" and a test fixture
// module's "internal/comm".
func PathContains(pkgPath, want string) bool {
	return strings.Contains("/"+pkgPath+"/", "/"+want+"/")
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through non-selector expressions, function-typed values, and
// built-ins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// RecvNamed reports the receiver's named type for a method, unwrapping any
// pointer, or nil for plain functions.
func RecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// A Finding is one diagnostic with the file set that interprets its
// positions, so findings from several loaded packages render uniformly.
type Finding struct {
	Fset *token.FileSet
	Diagnostic
}

// Position resolves the finding's location.
func (f Finding) Position() token.Position { return f.Fset.Position(f.Pos) }

// RunAll applies each analyzer to each package of one load and returns the
// findings sorted by (file, line, column, analyzer, message) — a total,
// deterministic order.
func RunAll(pkgs []*load.Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		fset := pkg.Fset
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report: func(d Diagnostic) {
					findings = append(findings, Finding{Fset: fset, Diagnostic: d})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
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
	return findings, nil
}
