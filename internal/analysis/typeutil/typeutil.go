// Package typeutil holds the small go/types helpers shared by the analysis
// framework and the callgraph builder. It is a leaf package (no other
// analysis package imports flow into it) so that callgraph and the framework
// proper can both use one definition of callee resolution and function
// naming without an import cycle.
package typeutil

import (
	"go/ast"
	"go/types"
)

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

// FuncID is the load-stable global name of a function: "pkgpath.Func" for
// package-level functions, "pkgpath.Type.Method" for methods (pointerness of
// the receiver is irrelevant for identity). Two *types.Func values for the
// same function — one type-checked from source, one imported from export
// data — map to the same ID.
func FuncID(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if named := RecvNamed(fn); named != nil {
		return pkg + "." + named.Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}
