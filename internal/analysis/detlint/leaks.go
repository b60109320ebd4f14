// The two leak checks: a lock taken with no matching unlock in the same
// function (the classic lock leak that hangs a real-mode scheduler), and the
// append-based compact delete that strands a live reference in a slice's
// vacated tail slot (the leak the old failPeer shipped). Neither is a
// determinism property, but both bind the same runtime packages detlint
// already walks, so they share its scope and its pass.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"chant/internal/analysis"
)

// checkLeaks runs both leak checks over one top-level declaration.
func checkLeaks(pass *analysis.Pass, decl ast.Decl) {
	if fd, ok := decl.(*ast.FuncDecl); ok {
		checkLockBalance(pass, fd)
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			checkCompactDelete(pass, as)
		}
		return true
	})
}

// checkCompactDelete flags the `s = append(s[:i], s[i+1:]...)` element
// removal idiom when s's elements hold references (pointers, interfaces,
// slices, maps, chans, funcs, strings): append shifts the tail left but the
// old last slot keeps its value, pinning the removed object until the slice
// is reallocated — exactly the failPeer leak this repo once shipped. The
// result may be stored anywhere (`*list = append(s[:i], s[i+1:]...)`
// strands the slot just the same). The fix is copy + nil the vacated slot
// + truncate.
func checkCompactDelete(pass *analysis.Pass, n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
		return
	}
	call, ok := n.Rhs[0].(*ast.CallExpr)
	if !ok || !call.Ellipsis.IsValid() || len(call.Args) != 2 {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	head, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || head.High == nil || head.Slice3 {
		return
	}
	tail, ok := ast.Unparen(call.Args[1]).(*ast.SliceExpr)
	if !ok || tail.Low == nil || tail.High != nil {
		return
	}
	base := types.ExprString(head.X)
	if types.ExprString(tail.X) != base {
		return
	}
	tv, ok := pass.TypesInfo.Types[head.X]
	if !ok {
		return
	}
	slice, ok := tv.Type.Underlying().(*types.Slice)
	if !ok || !holdsReferences(slice.Elem()) {
		return
	}
	pass.Reportf(n.Pos(), "append-based compact delete on %s strands a live reference in the vacated tail slot; use copy, zero the last element, then truncate", base)
}

// holdsReferences reports whether values of type t keep other objects
// reachable (so a stale slot delays collection).
func holdsReferences(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Slice, *types.Map,
		*types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.String
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsReferences(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return holdsReferences(u.Elem())
	}
	return false
}

// lockMethod resolves a call to a (Lock|RLock|Unlock|RUnlock|TryLock) method
// on sync.Mutex/sync.RWMutex or Chant's ult.Mutex, returning the method name
// and a key identifying the receiver expression.
func lockMethod(pass *analysis.Pass, call *ast.CallExpr) (method, recvKey string) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", ""
	}
	named := analysis.RecvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return "", ""
	}
	pkg := named.Obj().Pkg().Path()
	isSync := pkg == "sync" && (named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
	isUlt := analysis.PathContains(pkg, "internal/ult") && named.Obj().Name() == "Mutex"
	if !isSync && !isUlt {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return fn.Name(), types.ExprString(sel.X)
}

// checkLockBalance counts Lock and Unlock call sites per receiver
// expression within one function: more Locks than Unlocks (deferred or not)
// means some path leaks the lock. The converse (extra Unlocks on branched
// paths) is fine and common.
func checkLockBalance(pass *analysis.Pass, decl *ast.FuncDecl) {
	if decl.Body == nil {
		return
	}
	type counts struct{ locks, unlocks int }
	perRecv := map[string]*counts{}
	// Function literals are walked as part of the body: a deferred literal
	// releasing the lock belongs to this function's balance.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, key := lockMethod(pass, call)
		if method == "" {
			return true
		}
		c := perRecv[key]
		if c == nil {
			c = &counts{}
			perRecv[key] = c
		}
		switch method {
		case "Lock", "RLock":
			c.locks++
		case "Unlock", "RUnlock":
			c.unlocks++
		}
		return true
	})
	// Deterministic report order: walk the body again in source order.
	reported := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, key := lockMethod(pass, call)
		if method != "Lock" && method != "RLock" || reported[key] {
			return true
		}
		if c := perRecv[key]; c != nil && c.locks > c.unlocks {
			reported[key] = true
			pass.Reportf(call.Pos(), "%s.%s has no matching unlock in %s: %d lock call(s) vs %d unlock call(s); some path leaks the lock", key, method, decl.Name.Name, c.locks, c.unlocks)
		}
		return true
	})
}
