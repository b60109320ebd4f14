// The bounded-spin check: real-mode waiting parks (Host.Idle,
// sync.Cond.Wait), and the contract is that any spin on the way there is
// *bounded* — a counted loop that gives up and parks after a fixed budget.
// An unbounded loop whose body only polls atomics burns the PE, starves the
// cooperative scheduler on small hosts, and — if it ever leaks into a
// simulation path — hangs the virtual clock, so detlint flags the shape
// outright rather than waiting for a hang to diagnose.
package detlint

import (
	"go/ast"
	"strings"

	"chant/internal/analysis"
)

// parkCalls lists method names that surrender the processor: a loop that
// reaches one of these each iteration is a legitimate wait loop (the
// condition-variable recheck idiom), not a busy spin.
var parkCalls = map[string]bool{
	"Wait":       true, // sync.Cond.Wait, WaitGroup.Wait
	"Idle":       true, // machine.Host.Idle
	"WaitSignal": true,
	"Sleep":      true,
	"Lock":       true, // blocking mutex acquisition parks in the runtime
	"Yield":      true, // cooperative scheduler handoff runs other threads
}

// checkSpinLoops flags unbounded pure-atomic spin loops under root.
func checkSpinLoops(pass *analysis.Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if !isUnboundedSpin(pass, loop) {
			return true
		}
		if pass.Suppressed(loop.Pos()) {
			// Sanctioned spins (none today) still skip their nested loops.
			return false
		}
		pass.Reportf(loop.Pos(),
			"unbounded spin loop in simulation-critical package %s: "+
				"busy-polling atomics never yields the processor; bound the spin with a "+
				"counted loop and park (Host.Idle, sync.Cond.Wait) when the budget runs out",
			pass.Pkg.Path())
		return false // the finding covers any nested loop too
	})
}

// isUnboundedSpin reports whether loop busy-polls atomic state forever:
//
//   - it is not a counted loop (no init/post bound — `for {}` or `for cond {}`),
//   - its body and condition call into sync/atomic at least once,
//   - every call it makes is a sync/atomic operation (so nothing in the body
//     can block, yield, or make progress on behalf of another thread), and
//   - none of those calls is a CompareAndSwap: a CAS retry loop re-runs only
//     while *another* processor makes progress, which is lock-free forward
//     progress, not waiting.
//
// Any other call — a park primitive, a drain, an arbitrary function whose
// blocking behaviour we cannot see — disqualifies the loop: the check flags
// only loops that provably cannot leave the processor.
func isUnboundedSpin(pass *analysis.Pass, loop *ast.ForStmt) bool {
	if loop.Init != nil && loop.Post != nil {
		return false // counted loop: the spin is bounded by construction
	}
	atomicCalls := 0
	pure := true
	inspect := func(n ast.Node) bool {
		if !pure {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			pure = false // dynamic or unresolvable call: assume it can block
			return false
		}
		if parkCalls[fn.Name()] {
			pure = false
			return false
		}
		switch fn.Pkg().Path() {
		case "sync/atomic":
			if strings.HasPrefix(fn.Name(), "CompareAndSwap") {
				pure = false // lock-free retry loop, not a wait
				return false
			}
			atomicCalls++
		case "runtime":
			if fn.Name() != "Gosched" {
				pure = false
				return false
			}
			// Gosched yields the OS thread but the loop still burns the
			// processor forever; it neither counts nor excuses.
		default:
			pure = false // some other call: could park, drain, or progress
			return false
		}
		return true
	}
	if loop.Cond != nil {
		ast.Inspect(loop.Cond, inspect)
	}
	if pure {
		ast.Inspect(loop.Body, inspect)
	}
	return pure && atomicCalls > 0
}
