// Package analysistest runs a chantvet analyzer over a fixture module and
// compares its diagnostics against `// want` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (rebuilt here on the standard
// library). Fixtures live under a testdata directory containing a complete
// module — by convention `module chant` with stub internal packages — so
// import paths in fixtures resolve exactly like the real repository's.
//
// Run hands the loaded packages to analysis.RunAll, as the chantvet command
// does, so a fixture sees exactly what a chantvet run would report.
package analysistest

import (
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"chant/internal/analysis"
	"chant/internal/analysis/load"
)

// wantRe extracts the expectation list from a `// want "re1" "re2"` comment.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// expectation is one `// want` pattern awaiting a matching diagnostic.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the packages matching patterns from the fixture module rooted at
// dir, applies the analyzer to each of them, and reports any mismatch
// between diagnostics and `// want` comments as test errors. It returns the
// findings for callers with further assertions to make.
func Run(t *testing.T, dir string, a *analysis.Analyzer, patterns ...string) []analysis.Finding {
	t.Helper()
	statFixture(t, dir)
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", dir)
	}
	findings, err := analysis.RunAll(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%s on %s: %v", a.Name, dir, err)
	}
	check(t, pkgs, findings)
	return findings
}

// statFixture lists every directory and stats every file of the fixture
// module from the test process itself. go test keys a cached pass on the
// files the test process opened or stat'ed, and the fixture's go.mod and
// any package it does not parse reach the analyzer only through `go list`,
// a separate process; so does the listing that reveals an added or removed
// file. Without this, such an edit replays the cached result.
func statFixture(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatalf("reading fixture %s: %v", dir, err)
	}
}

// check matches findings against the union of every package's `// want`
// comments.
func check(t *testing.T, pkgs []*load.Package, findings []analysis.Finding) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	for _, f := range findings {
		pos := f.Position()
		matched := false
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && !w.matched && w.pattern.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}
}

// collectWants parses every `// want` comment in the package's files.
func collectWants(t *testing.T, pkg *load.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range splitPatterns(t, pos, m[1]) {
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: pat})
				}
			}
		}
	}
	return wants
}

// splitPatterns parses a space-separated list of quoted or backquoted
// regular expressions.
func splitPatterns(t *testing.T, pos token.Position, s string) []*regexp.Regexp {
	t.Helper()
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var lit, rest string
		switch s[0] {
		case '"':
			end := strings.Index(s[1:], `"`)
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern: %s", pos, s)
			}
			quoted := s[:end+2]
			var err error
			lit, err = strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("%s: bad want pattern %s: %v", pos, quoted, err)
			}
			rest = s[end+2:]
		case '`':
			end := strings.Index(s[1:], "`")
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern: %s", pos, s)
			}
			lit = s[1 : end+1]
			rest = s[end+2:]
		default:
			t.Fatalf("%s: want patterns must be quoted: %s", pos, s)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
		}
		out = append(out, re)
		s = strings.TrimSpace(rest)
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment with no patterns", pos)
	}
	return out
}
