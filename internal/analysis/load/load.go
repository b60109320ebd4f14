// Package load type-checks Go packages for chantvet without the
// golang.org/x/tools machinery: it shells out to `go list -json -export
// -deps` for dependency export data (compiled into the build cache by the go
// command, so this works offline) and type-checks the target packages' source
// with go/parser and go/types.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one type-checked target package.
type Package struct {
	PkgPath string
	// Imports are the package's direct imports (canonical paths); topoSort
	// orders packages by them.
	Imports   []string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns, resolving imports through
// export data. dir is the working directory for the go command (the module
// root whose packages are named by patterns).
func Load(dir string, patterns ...string) ([]*Package, error) {
	roots, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := newImporter(fset, exports)
	var out []*Package
	for _, lp := range roots {
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("load: %w", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("load: type-checking %s: %w", lp.ImportPath, err)
		}
		out = append(out, &Package{
			PkgPath:   lp.ImportPath,
			Imports:   lp.Imports,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return topoSort(out), nil
}

// topoSort orders packages so every package follows the packages it imports
// (considering only imports within the slice), with import-path order
// breaking ties. The result is deterministic for a given input set, which
// keeps multi-package diagnostic output byte-stable across runs.
func topoSort(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.PkgPath)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		p, ok := byPath[path]
		if !ok || state[path] != 0 {
			return // external, already emitted, or a cycle (impossible in Go)
		}
		state[path] = 1
		deps := append([]string(nil), p.Imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			visit(dep)
		}
		state[path] = 2
		out = append(out, p)
	}
	for _, path := range paths {
		visit(path)
	}
	return out
}

// goList runs the go command twice: once without -deps to learn which
// packages the patterns name (the roots to analyze), once with -export -deps
// to collect export data for every dependency.
func goList(dir string, patterns []string) (roots []listPackage, exports map[string]string, err error) {
	rootOut, err := runGoList(dir, append([]string{"list", "-json"}, patterns...))
	if err != nil {
		return nil, nil, err
	}
	for _, lp := range rootOut {
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		roots = append(roots, lp)
	}
	depOut, err := runGoList(dir, append([]string{"list", "-json", "-export", "-deps"}, patterns...))
	if err != nil {
		return nil, nil, err
	}
	exports = make(map[string]string, len(depOut))
	for _, lp := range depOut {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return roots, exports, nil
}

func runGoList(dir string, args []string) ([]listPackage, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go %v: %v\n%s", args, err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// newImporter returns a types.Importer that reads the gc export data files
// named by the path -> file map `go list -export` produced (package unsafe
// the gc importer serves itself).
func newImporter(fset *token.FileSet, exportFiles map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exportFiles[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}
