// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough framework to write chantvet's
// checkers against (the container image carries no module proxy, so the real
// x/tools package is not available). An Analyzer inspects one type-checked
// package at a time through a Pass and reports Diagnostics. There is one
// driver, registry.RunAll, which loads nothing itself: the chantvet command
// and the analysistest harness both hand it the packages of one load.
//
// Beyond the per-package model the framework carries one interprocedural
// mechanism: a type-informed call graph (see the callgraph package) built
// over every loaded package and handed to each Pass. Analyzers that need
// that whole-program view after every package has been visited install a
// Finish hook.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"chant/internal/analysis/callgraph"
	"chant/internal/analysis/typeutil"
)

// An Analyzer describes one chantvet check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph description printed by chantvet -h.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// Finish, if non-nil, runs once after every loaded package has been
	// visited, receiving the passes in dependency order. Whole-program
	// analyzers (ndtaint) do their propagation and reporting here, over the
	// call graph of everything that was loaded.
	Finish func(passes []*Pass) error
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

	// Graph is the call graph over every package of the load: the whole
	// module for `chantvet ./...`, only the named sub-tree otherwise.
	Graph *callgraph.Graph

	// Report receives each diagnostic. The driver installs it; analyzers
	// call Reportf instead.
	Report func(Diagnostic)

	// suppress indexes the suppression comments: marker -> filename -> line
	// -> whether the comment stands alone on its line.
	suppress map[string]map[string]map[int]bool
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

// DefaultMarker is the suppression marker analyzers honor unless they set
// Analyzer.Marker: //chant:allow-nondet <reason>.
const DefaultMarker = "allow-nondet"

// marker reports the suppression marker in force for this pass.
func (p *Pass) marker() string {
	if p.Analyzer != nil && p.Analyzer.Marker != "" {
		return p.Analyzer.Marker
	}
	return DefaultMarker
}

// Suppressed reports whether pos is covered by the analyzer's suppression
// comment (//chant:<marker> <reason>) — with a non-empty reason, so silenced
// diagnostics stay explained — either trailing on the same line or alone on
// the line immediately above.
func (p *Pass) Suppressed(pos token.Pos) bool {
	return p.SuppressedBy(pos, p.marker())
}

// SuppressedBy is Suppressed for an explicit marker, for analyzers that
// consult a marker other than their reporting default (ndtaint checks
// allow-nondet at taint sources while reporting elsewhere).
func (p *Pass) SuppressedBy(pos token.Pos, marker string) bool {
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	lines, line := p.markerLines(marker)[tf.Name()], tf.Line(pos)
	if _, same := lines[line]; same {
		return true
	}
	return lines[line-1] // only a comment alone on its line reaches down
}

// markerLines lazily indexes, per file, the lines carrying a well-formed
// suppression comment for marker; the value records whether the comment is
// the first token on its line (a trailing comment covers its own line only).
func (p *Pass) markerLines(marker string) map[string]map[int]bool {
	if p.suppress == nil {
		p.suppress = make(map[string]map[string]map[int]bool)
	}
	if m, ok := p.suppress[marker]; ok {
		return m
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
	p.suppress[marker] = byFile
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

// PathMatches reports whether a package path is, or ends with, the given
// repo-relative path (e.g. "internal/ult" matches both "chant/internal/ult"
// and a test fixture module's "internal/ult").
func PathMatches(pkgPath, want string) bool {
	return pkgPath == want || strings.HasSuffix(pkgPath, "/"+want)
}

// PathContains reports whether the repo-relative path want appears as a
// segment run anywhere in pkgPath ("internal/comm" matches
// "chant/internal/comm/tcpnet").
func PathContains(pkgPath, want string) bool {
	return strings.Contains("/"+pkgPath+"/", "/"+want+"/")
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through non-selector expressions, function-typed values, and
// built-ins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	return typeutil.CalleeFunc(info, call)
}

// RecvNamed reports the receiver's named type for a method, unwrapping any
// pointer, or nil for plain functions.
func RecvNamed(fn *types.Func) *types.Named {
	return typeutil.RecvNamed(fn)
}
