// Package schedctx defines the chantvet analyzer that enforces Chant's
// scheduler-context contract: ult.Sched operations, thread synchronization
// primitives, blocking core.Thread communication, and Host time-consuming
// calls are only meaningful on the goroutine currently animating the owning
// scheduler. Invoking them from a raw `go` statement or a time.AfterFunc
// callback silently corrupts scheduler state (the exact misuse class the
// runtime's chantdebug owner tokens catch at run time — this analyzer
// catches the common escapes at compile time).
package schedctx

import (
	"go/ast"

	"chant/internal/analysis"
)

// Analyzer flags scheduler-context-only calls made from goroutine escapes.
var Analyzer = &analysis.Analyzer{
	Name: "schedctx",
	Doc: "report scheduler-context-only Chant runtime calls made from raw go " +
		"statements or time.AfterFunc callbacks, which execute outside the " +
		"owning scheduler's context",
	Run: run,
}

// restricted maps (repo-relative package path, type, method) to the reason a
// call is scheduler-context-only. Host.Interrupt, Proc.Signal, Log.Add and
// the Counters atomics are deliberately absent: those are the sanctioned
// cross-context entry points.
var restricted = map[[3]string]string{
	{"internal/ult", "Sched", "Spawn"}:     "mutates the ready queue",
	{"internal/ult", "Sched", "SpawnWith"}: "mutates the ready queue",
	{"internal/ult", "Sched", "Yield"}:     "switches threads",
	{"internal/ult", "Sched", "Block"}:     "parks the calling thread",
	{"internal/ult", "Sched", "Unblock"}:   "mutates the ready queue",
	{"internal/ult", "Sched", "Exit"}:      "unwinds the calling thread",
	{"internal/ult", "Sched", "Cancel"}:    "mutates thread state",
	{"internal/ult", "Sched", "Join"}:      "parks the calling thread",
	{"internal/ult", "Mutex", "Lock"}:      "blocks the calling thread",
	{"internal/ult", "Mutex", "TryLock"}:   "mutates scheduler-owned state",
	{"internal/ult", "Mutex", "Unlock"}:    "mutates the ready queue",
	{"internal/ult", "Cond", "Wait"}:       "blocks the calling thread",
	{"internal/ult", "Cond", "Signal"}:     "mutates the ready queue",
	{"internal/ult", "Cond", "Broadcast"}:  "mutates the ready queue",
	{"internal/ult", "TCB", "SetLocal"}:    "touches thread-local storage",
	{"internal/ult", "TCB", "Local"}:       "touches thread-local storage",
	{"internal/ult", "TCB", "SetPriority"}: "mutates scheduler-owned state",

	{"internal/core", "Thread", "Send"}:         "charges the caller's host",
	{"internal/core", "Thread", "SendSync"}:     "blocks the calling thread",
	{"internal/core", "Thread", "Recv"}:         "blocks the calling thread",
	{"internal/core", "Thread", "Irecv"}:        "posts into scheduler-owned state",
	{"internal/core", "Thread", "Msgtest"}:      "charges the caller's host",
	{"internal/core", "Thread", "Msgwait"}:      "blocks the calling thread",
	{"internal/core", "Thread", "Yield"}:        "switches threads",
	{"internal/core", "Thread", "Exit"}:         "unwinds the calling thread",
	{"internal/core", "Thread", "Join"}:         "blocks the calling thread",
	{"internal/core", "Thread", "JoinLocal"}:    "blocks the calling thread",
	{"internal/core", "Thread", "Cancel"}:       "sends from the calling thread",
	{"internal/core", "Thread", "CancelLocal"}:  "mutates thread state",
	{"internal/core", "Thread", "Create"}:       "sends from the calling thread",
	{"internal/core", "Thread", "Call"}:         "blocks the calling thread",
	{"internal/core", "Thread", "Notify"}:       "sends from the calling thread",
	{"internal/core", "Thread", "Ping"}:         "blocks the calling thread",
	{"internal/core", "Process", "CreateLocal"}: "mutates the ready queue",

	{"internal/comm", "Endpoint", "Send"}:       "charges the endpoint's host",
	{"internal/comm", "Endpoint", "SendFlags"}:  "charges the endpoint's host",
	{"internal/comm", "Endpoint", "Recv"}:       "parks the endpoint's host",
	{"internal/comm", "Endpoint", "Irecv"}:      "posts into the mailbox",
	{"internal/comm", "Endpoint", "Test"}:       "charges the endpoint's host",
	{"internal/comm", "Endpoint", "TestAny"}:    "charges the endpoint's host",
	{"internal/comm", "Endpoint", "Wait"}:       "parks the endpoint's host",
	{"internal/comm", "Endpoint", "Probe"}:      "charges the endpoint's host",
	{"internal/comm", "Endpoint", "CancelRecv"}: "mutates the mailbox",

	{"internal/machine", "Host", "Charge"}:  "consumes the processor's time",
	{"internal/machine", "Host", "Compute"}: "consumes the processor's time",
	{"internal/machine", "Host", "Relax"}:   "yields the processor",
	{"internal/machine", "Host", "Idle"}:    "parks the processor",

	{"internal/sim", "Proc", "Advance"}:    "yields to the simulation kernel",
	{"internal/sim", "Proc", "WaitSignal"}: "parks the simulation process",
	{"internal/sim", "Kernel", "At"}:       "mutates the event heap",
	{"internal/sim", "Kernel", "After"}:    "mutates the event heap",
	{"internal/sim", "Kernel", "Spawn"}:    "mutates the event heap",
	{"internal/sim", "Kernel", "SpawnAt"}:  "mutates the event heap",
}

// lookup resolves a call to its restriction reason, or "" if unrestricted.
func lookup(pass *analysis.Pass, call *ast.CallExpr) (api, reason string) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	named := analysis.RecvNamed(fn)
	if named == nil {
		return "", ""
	}
	for key, why := range restricted {
		if named.Obj().Name() == key[1] && fn.Name() == key[2] &&
			analysis.PathMatches(fn.Pkg().Path(), key[0]) {
			return key[1] + "." + key[2], why
		}
	}
	return "", ""
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.IsTest(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkEscape(pass, n.Call, "a raw go statement")
			case *ast.CallExpr:
				if isTimeAfterFunc(pass, n) && len(n.Args) == 2 {
					if lit, ok := ast.Unparen(n.Args[1]).(*ast.FuncLit); ok {
						checkBody(pass, lit.Body, "a time.AfterFunc callback")
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkEscape examines the call launched by a go statement: the call itself
// may be restricted (go s.Yield()), or it may run a function literal whose
// body makes restricted calls.
func checkEscape(pass *analysis.Pass, call *ast.CallExpr, context string) {
	if api, reason := lookup(pass, call); api != "" {
		pass.Reportf(call.Pos(), "%s %s but is launched on %s, outside the scheduler's context", api, reason, context)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		checkBody(pass, lit.Body, context)
	}
}

// checkBody flags restricted calls anywhere inside an escaping function
// body, including nested literals (they inherit the escaped context).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, context string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if api, reason := lookup(pass, call); api != "" {
			pass.Reportf(call.Pos(), "%s %s and must be called from the scheduler's context, not from %s", api, reason, context)
		}
		return true
	})
}

// isTimeAfterFunc reports whether call invokes time.AfterFunc.
func isTimeAfterFunc(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "AfterFunc"
}
