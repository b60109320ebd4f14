// The nondeterminism sources: the syntactic constructs whose results differ
// run to run (wall-clock reads, global PRNG draws, raw goroutine spawns,
// order-sensitive map iteration, multi-case selects, sync.Pool traffic).
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"chant/internal/analysis"
)

// A source is one nondeterminism source surviving suppression filtering.
type source struct {
	Pos token.Pos
	// What is the leading clause of a diagnostic: "time.Now",
	// "global rand.Intn", "raw go statement", "select with 2 communication
	// cases", "range over map with order-sensitive effects", "sync.Pool.Get".
	What string
	// Why is the explanation clause: "the wall clock is nondeterministic;
	// use the Host/sim clock".
	Why string
}

// wallClock lists the time-package functions whose results differ run to
// run (or that schedule against the wall clock).
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// scan walks root (a single declaration) and returns its nondeterminism
// sources in position order, excluding any covered by a
// //chant:allow-nondet <reason> comment.
func scan(pass *analysis.Pass, root ast.Node) []source {
	var out []source
	add := func(s source) {
		if !pass.Suppressed(s.Pos) {
			out = append(out, s)
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if s, ok := callSource(pass, n); ok {
				add(s)
			}
		case *ast.GoStmt:
			add(source{
				Pos:  n.Pos(),
				What: "raw go statement",
				Why:  "goroutine interleaving is nondeterministic",
			})
		case *ast.RangeStmt:
			if s, ok := rangeSource(pass, n); ok {
				add(s)
			}
		case *ast.SelectStmt:
			if s, ok := selectSource(n); ok {
				add(s)
			}
		}
		return true
	})
	return out
}

// callSource classifies wall-clock reads, global math/rand draws, and
// sync.Pool traffic.
func callSource(pass *analysis.Pass, call *ast.CallExpr) (source, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return source{}, false
	}
	if named := analysis.RecvNamed(fn); named != nil {
		return poolSource(call, fn.Name(), named)
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClock[fn.Name()] {
			return source{
				Pos:  call.Pos(),
				What: "time." + fn.Name(),
				Why:  "the wall clock is nondeterministic; use the Host/sim clock",
			}, true
		}
	case "math/rand", "math/rand/v2":
		return source{
			Pos:  call.Pos(),
			What: fmt.Sprintf("global %s.%s", fn.Pkg().Name(), fn.Name()),
			Why:  "shared PRNG state is order-dependent; use sim.RNG with an explicit seed",
		}, true
	}
	return source{}, false
}

// poolSource classifies Get and Put on sync.Pool: the pool hands objects
// back in a scheduler- and GC-dependent order, so any observable reuse (a
// recycled buffer's identity, a per-P cache hit vs a fresh allocation)
// varies run to run. Deterministic code wants a plain LIFO freelist; a pool
// whose reuse cannot be observed (comm's message pool, whose every field is
// overwritten before use) carries the annotation with that reason.
func poolSource(call *ast.CallExpr, method string, named *types.Named) (source, bool) {
	if named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" || named.Obj().Name() != "Pool" {
		return source{}, false
	}
	if method != "Get" && method != "Put" {
		return source{}, false
	}
	return source{
		Pos:  call.Pos(),
		What: "sync.Pool." + method,
		Why:  "pool reuse order is scheduler- and GC-dependent; use a plain freelist, or annotate a pool whose reuse cannot be observed with that reason",
	}, true
}

// rangeSource classifies iteration over a map whose body has side effects
// beyond plain reads and builtin calls: Go randomizes map order, so any
// order-sensitive effect (emitting events, sends, non-builtin calls)
// diverges between runs.
func rangeSource(pass *analysis.Pass, rng *ast.RangeStmt) (source, bool) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return source{}, false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return source{}, false
	}
	var effect ast.Node
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if effect != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			effect = n
		case *ast.CallExpr:
			if !isPureBuiltin(pass, n) {
				effect = n
			}
		}
		return true
	})
	if effect == nil {
		return source{}, false
	}
	return source{
		Pos:  rng.Pos(),
		What: "range over map with order-sensitive effects",
		Why:  "map iteration order is randomized; sort the keys first",
	}, true
}

// isPureBuiltin reports whether a call is one of the builtins whose use in a
// map loop cannot observe iteration order externally (append into a slice
// that is presumably sorted afterwards, len, cap, delete, copy, make, min,
// max). Conversions also qualify.
func isPureBuiltin(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		// Selector or literal call: a conversion like sim.Time(x) is fine.
		tv, isConv := pass.TypesInfo.Types[call.Fun]
		return isConv && tv.IsType()
	}
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
		return true
	}
	return false
}

// selectSource classifies selects that choose among multiple ready
// communications: the runtime picks uniformly at random.
func selectSource(sel *ast.SelectStmt) (source, bool) {
	comm := 0
	for _, clause := range sel.Body.List {
		if c, ok := clause.(*ast.CommClause); ok && c.Comm != nil {
			comm++
		}
	}
	if comm < 2 {
		return source{}, false
	}
	return source{
		Pos:  sel.Pos(),
		What: fmt.Sprintf("select with %d communication cases", comm),
		Why:  "case choice is randomized when several are ready",
	}, true
}
