// Package callgraph builds a type-informed static call graph across every
// package of one chantvet load. Edges come from two resolutions:
//
//   - static calls: the callee *types.Func named directly at the call site
//     (plain functions, methods on concrete receivers);
//   - interface calls: a call through an interface method is resolved against
//     the method sets of every named type declared in the loaded packages,
//     producing one edge per implementation. Chant's interface sets are
//     deliberately small (simKernel, comm.Transport, machine.Host, the
//     polling policies), so this resolution is cheap and precise. Only
//     interfaces declared inside the loaded module are resolved — dispatch
//     through stdlib interfaces (error, io.Writer) stays unresolved rather
//     than fanning out to every implementation in the program.
//
// Nodes are keyed by a load-stable ID (typeutil.FuncID), so an edge whose
// callee was type-checked from export data lands on the same node as the
// callee's own source-checked declaration. Calls inside function literals
// are attributed to the enclosing declared function: for reachability-style
// analyses (ndtaint) a closure runs with its creator's obligations.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"chant/internal/analysis/load"
	"chant/internal/analysis/typeutil"
)

// A Node is one function in the graph.
type Node struct {
	// ID is the load-stable name: "pkgpath.Func" or "pkgpath.Type.Method".
	ID string
	// Decl is the function's declaration when it was loaded from source in
	// this run; nil for externals known only through export data.
	Decl *ast.FuncDecl
	// Edges are the outgoing calls, in call-site order.
	Edges []Edge
}

// An Edge is one call site.
type Edge struct {
	// Site is the call expression's position.
	Site token.Pos
	// Callee is the resolved target.
	Callee *Node
	// Interface marks an edge resolved through an interface method set
	// rather than named statically.
	Interface bool
}

// A Graph is the call graph over the packages of one load.
type Graph struct {
	nodes map[string]*Node
	byPkg map[string][]*Node
}

// Node returns the graph node with the given ID, or nil.
func (g *Graph) Node(id string) *Node { return g.nodes[id] }

// PackageNodes returns the declared functions of one package, in source
// order.
func (g *Graph) PackageNodes(pkgPath string) []*Node { return g.byPkg[pkgPath] }

// Build constructs the call graph over pkgs. Test files are excluded, as
// every chantvet analyzer excludes them.
func Build(pkgs []*load.Package) *Graph {
	g := &Graph{nodes: make(map[string]*Node), byPkg: make(map[string][]*Node)}
	b := &builder{g: g}
	b.collectImpls(pkgs)
	for _, pkg := range pkgs {
		b.addPackage(pkg)
	}
	for _, nodes := range g.byPkg {
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })
	}
	return g
}

type builder struct {
	g *Graph
	// impls lists every named type declared in the loaded packages, the
	// candidate set for interface resolution.
	impls []*types.Named
	// loaded is the set of loaded package paths; interface methods are only
	// resolved when their interface is declared in one of them.
	loaded map[string]bool
}

// collectImpls gathers the named types of every loaded package.
func (b *builder) collectImpls(pkgs []*load.Package) {
	b.loaded = make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		b.loaded[pkg.PkgPath] = true
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				if _, isIface := named.Underlying().(*types.Interface); !isIface {
					b.impls = append(b.impls, named)
				}
			}
		}
	}
	sort.Slice(b.impls, func(i, j int) bool {
		return b.impls[i].Obj().Pkg().Path()+"."+b.impls[i].Obj().Name() <
			b.impls[j].Obj().Pkg().Path()+"."+b.impls[j].Obj().Name()
	})
}

// nodeForFunc interns the node for a resolved *types.Func.
func (b *builder) nodeForFunc(fn *types.Func) *Node {
	id := typeutil.FuncID(fn)
	if n, ok := b.g.nodes[id]; ok {
		return n
	}
	n := &Node{ID: id}
	b.g.nodes[id] = n
	return n
}

// addPackage creates declared nodes and their edges for one loaded package.
func (b *builder) addPackage(pkg *load.Package) {
	for _, file := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(file.Package).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := b.nodeForFunc(obj)
			n.Decl = fd
			b.g.byPkg[pkg.PkgPath] = append(b.g.byPkg[pkg.PkgPath], n)
			b.addEdges(pkg, n, fd.Body)
		}
	}
}

// addEdges walks a declared function's body recording one edge per resolved
// call site.
func (b *builder) addEdges(pkg *load.Package, caller *Node, body *ast.BlockStmt) {
	ast.Inspect(body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := typeutil.CalleeFunc(pkg.TypesInfo, call); fn != nil {
			if b.isInterfaceCall(pkg, call) {
				b.addInterfaceEdges(pkg, caller, call, fn)
			} else {
				caller.Edges = append(caller.Edges, Edge{Site: call.Pos(), Callee: b.nodeForFunc(fn)})
			}
		}
		return true
	})
}

// isInterfaceCall reports whether call dispatches through an interface
// method.
func (b *builder) isInterfaceCall(pkg *load.Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := pkg.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	recv := selection.Recv()
	_, isIface := recv.Underlying().(*types.Interface)
	return isIface
}

// addInterfaceEdges resolves an interface method call against the loaded
// named types, adding one edge per implementation.
func (b *builder) addInterfaceEdges(pkg *load.Package, caller *Node, call *ast.CallExpr, m *types.Func) {
	// Only resolve interfaces declared in the loaded module: fanning
	// error.Error or io.Writer.Write out to every implementation would
	// connect unrelated code.
	if m.Pkg() == nil || !b.loaded[m.Pkg().Path()] {
		return
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	selection := pkg.TypesInfo.Selections[sel]
	iface, ok := selection.Recv().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, named := range b.impls {
		var impl types.Type = named
		if !types.Implements(impl, iface) {
			impl = types.NewPointer(named)
			if !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			caller.Edges = append(caller.Edges, Edge{Site: call.Pos(), Callee: b.nodeForFunc(fn), Interface: true})
		}
	}
}
