// Package handleleak defines chantvet's must-release analyzer for Chant's
// two manually managed resources: pooled messages (PR 3's allocation pools —
// GetPooledMessage / getMessage) and receive handles (comm.Endpoint.Irecv /
// newHandle). Both are recycled through explicit release calls; a handle or
// message that escapes every release on some path is a slow leak that erodes
// the constant-time pool guarantees the paper's Table 2 depends on.
//
// The analysis is intraprocedural and path-sensitive over the cfg package's
// basic blocks: from each acquisition it walks every control-flow path and
// demands that ownership ends before the function exits — by an explicit
// release, by transfer to a consuming call (Deliver and friends take
// ownership of the message), or by escape (returning the value, storing it
// into a structure, sending it on a channel, handing it to a goroutine),
// which moves the obligation to the new owner. A path reaching the exit
// with ownership still held is reported at the acquisition, naming the line
// where the leaking path leaves the function and the release call that would
// end it. Functions whose control flow the cfg builder rejects (goto) are
// skipped, not guessed at.
//
// Sanctioned sites carry //chant:allow-leak <reason>.
package handleleak

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"chant/internal/analysis"
	"chant/internal/analysis/cfg"
)

// Marker is the suppression marker: //chant:allow-leak <reason>.
const Marker = "allow-leak"

// Analyzer proves every pooled message and receive handle is released on all
// paths.
var Analyzer = &analysis.Analyzer{
	Name: "handleleak",
	Doc: "report pooled messages (GetPooledMessage/getMessage) and receive " +
		"handles (Irecv/newHandle) not released, delivered, or escaped on " +
		"every control-flow path; suppress sanctioned sites with a " +
		"//chant:allow-leak <reason> comment",
	Run:    run,
	Marker: Marker,
}

// kind distinguishes the two tracked resources; each has its own release
// vocabulary.
type kind int

const (
	message kind = iota
	handle
)

// acquirers maps function names that mint a tracked resource to its kind.
// Handle acquirers are only honored in the packages that define them
// (internal/comm and its consumers in internal/core), so an unrelated Irecv
// elsewhere is not claimed.
var acquirers = map[string]kind{
	"GetPooledMessage": message,
	"getMessage":       message,
	"Irecv":            handle,
	"newHandle":        handle,
}

// consumers lists, per kind, the callee names that take ownership when the
// tracked value is passed as an argument: releases return it to the pool,
// Deliver hands the message to the destination mailbox (which releases it
// after matching), append moves it into a caller-owned collection.
var consumers = map[kind]map[string]bool{
	message: {
		"ReleaseMessage": true, "releaseMessage": true,
		"Deliver": true, "DeliverLocal": true, "deliver": true,
		"append": true,
	},
	handle: {
		"ReleaseHandle": true,
		"append":        true,
	},
}

// handlePkgs are the package trees where Irecv/newHandle calls mint real
// receive handles.
var handlePkgs = []string{"internal/comm", "internal/core"}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.IsTest(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// an acquisition is one statement binding a tracked resource to a local
// variable.
type acquisition struct {
	stmt ast.Node // the assignment statement
	call *ast.CallExpr
	obj  types.Object // the local the resource is bound to
	name string       // acquirer name ("GetPooledMessage")
	kind kind
}

// checkFunc builds the function's CFG and runs the must-release walk for
// each acquisition found in it.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var acqs []acquisition
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		name, k, ok := acquirer(pass, call)
		if !ok {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return true
		}
		acqs = append(acqs, acquisition{stmt: as, call: call, obj: obj, name: name, kind: k})
		return true
	})
	if len(acqs) == 0 {
		return
	}
	graph, err := cfg.New(fd.Body)
	if err != nil {
		return // goto-using control flow: skip rather than guess
	}
	for _, acq := range acqs {
		if pass.SuppressedBy(acq.stmt.Pos(), Marker) {
			continue
		}
		checkAcquisition(pass, fd, graph, acq)
	}
}

// acquirer classifies call as a resource acquisition, returning the acquirer
// name and resource kind.
func acquirer(pass *analysis.Pass, call *ast.CallExpr) (string, kind, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", 0, false
	}
	k, ok := acquirers[fn.Name()]
	if !ok {
		return "", 0, false
	}
	if k == handle {
		inScope := false
		for _, p := range handlePkgs {
			if analysis.PathContains(pass.Pkg.Path(), p) || analysis.PathMatches(pass.Pkg.Path(), p) {
				inScope = true
			}
		}
		if !inScope {
			return "", 0, false
		}
	}
	return fn.Name(), k, true
}

// effect is what one statement does to a tracked resource's ownership.
type effect int

const (
	none effect = iota
	// released: ownership explicitly ended (release call, consuming call,
	// defer-registered release, escape to a new owner). The walk stops.
	released
	// rebound: the variable was reassigned; the old value's obligation was
	// the previous statements' business and tracking cannot continue.
	rebound
)

// checkAcquisition walks every path from the acquisition to the function
// exit; if any path arrives still owning the resource, it reports at the
// acquisition.
func checkAcquisition(pass *analysis.Pass, fd *ast.FuncDecl, graph *cfg.Graph, acq acquisition) {
	// Locate the acquisition inside its block.
	var start *cfg.Block
	startIdx := -1
	for _, blk := range graph.Blocks {
		for i, n := range blk.Nodes {
			if n == acq.stmt {
				start, startIdx = blk, i
				break
			}
		}
		if start != nil {
			break
		}
	}
	if start == nil {
		return // acquisition in unreachable code
	}

	// Walk the rest of the acquisition block, then BFS over successors.
	// Ownership is the only state, so visiting each block once suffices.
	first := &item{blk: start, from: startIdx + 1}
	queue := []*item{first}
	seen := map[*cfg.Block]bool{start: true}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		eff := none
		for _, n := range it.blk.Nodes[it.from:] {
			eff = nodeEffect(pass, n, acq)
			if eff != none {
				break
			}
		}
		if eff != none {
			continue // ownership ended (or tracking must stop) on this path
		}
		// Only the virtual exit is a leak; a successor-less block that is not
		// the exit ends in panic, which tears the process down pool and all.
		if it.blk == graph.Exit {
			report(pass, fd, acq, leakLine(pass, it))
			return
		}
		for _, succ := range it.blk.Succs {
			if seen[succ] {
				continue
			}
			seen[succ] = true
			queue = append(queue, &item{blk: succ, prev: it})
		}
	}
}

// leakLine picks the line where the leaking path leaves the function: the
// return statement of the last block on the path, or the function's closing
// line when control falls off the end.
func leakLine(pass *analysis.Pass, it *item) int {
	for cur := it; cur != nil; cur = cur.prev {
		if cur.blk.Returns != nil {
			return pass.Fset.Position(cur.blk.Returns.Pos()).Line
		}
		for i := len(cur.blk.Nodes) - 1; i >= 0; i-- {
			if r, ok := cur.blk.Nodes[i].(*ast.ReturnStmt); ok {
				return pass.Fset.Position(r.Pos()).Line
			}
		}
	}
	return 0
}

// item is one step of the must-release walk: a block, the index of its
// first unprocessed node, and the path that led here (for leakLine).
type item struct {
	blk  *cfg.Block
	from int
	prev *item
}

func report(pass *analysis.Pass, fd *ast.FuncDecl, acq acquisition, line int) {
	what := "pooled message"
	rel := releaseName(pass, acq)
	if acq.kind == handle {
		what = "receive handle"
	}
	where := "at the function exit"
	if line > 0 {
		where = fmt.Sprintf("at the return on line %d", line)
	}
	pass.Reportf(acq.stmt.Pos(),
		"%s %s acquired from %s is not released on every path (leaks %s); release it with %s or annotate //chant:allow-leak <reason>",
		what, acq.obj.Name(), acq.name, where, rel)
}

// releaseName derives the release call matching the acquisition, preserving
// the acquisition's qualifier: "comm.GetPooledMessage" suggests
// "comm.ReleaseMessage", and a method acquirer like "p.ep.Irecv" suggests
// releasing through the same receiver, "p.ep.ReleaseHandle".
func releaseName(pass *analysis.Pass, acq acquisition) string {
	rel := map[kind]string{message: "ReleaseMessage", handle: "ReleaseHandle"}[acq.kind]
	if acq.name == "getMessage" {
		rel = "releaseMessage"
	}
	if sel, ok := ast.Unparen(acq.call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				return id.Name + "." + rel
			}
		}
		if acq.kind == handle {
			if q := exprString(pass.Fset, sel.X); q != "" {
				return q + "." + rel
			}
		}
	}
	return rel
}

// exprString renders an expression's source text.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, e); err != nil {
		return ""
	}
	return b.String()
}

// nodeEffect classifies one CFG node's action on the tracked resource.
func nodeEffect(pass *analysis.Pass, n ast.Node, acq acquisition) effect {
	eff := none
	ast.Inspect(n, func(node ast.Node) bool {
		if eff != none {
			return false
		}
		switch node := node.(type) {
		case *ast.ReturnStmt:
			// Returning the value itself transfers ownership to the caller;
			// returning a field of it does not.
			for _, res := range node.Results {
				if isVar(pass, res, acq.obj) {
					eff = released
					return false
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if isVar(pass, lhs, acq.obj) {
					eff = rebound
					return false
				}
			}
			// Storing the value anywhere — a field, slice element, map,
			// global, or a plain alias `m2 := msg` — escapes it to the
			// structure's (or alias's) owner.
			for _, rhs := range node.Rhs {
				if isVar(pass, rhs, acq.obj) {
					eff = released
					return false
				}
			}
		case *ast.SendStmt:
			if isVar(pass, node.Value, acq.obj) {
				eff = released
				return false
			}
		case *ast.GoStmt:
			if callUsesVar(pass, node.Call, acq.obj) {
				eff = released
				return false
			}
		case *ast.DeferStmt:
			// A deferred consuming call releases on every exit past this
			// point: sound to treat as an immediate kill for must-release.
			if callUsesVar(pass, node.Call, acq.obj) {
				eff = released
				return false
			}
		case *ast.CompositeLit:
			for _, el := range node.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if isVar(pass, el, acq.obj) {
					eff = released
					return false
				}
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND && isVar(pass, node.X, acq.obj) {
				eff = released
				return false
			}
		case *ast.CallExpr:
			if e := callEffect(pass, node, acq); e != none {
				eff = e
				return false
			}
		}
		return true
	})
	return eff
}

// callEffect classifies a call with the tracked value among its arguments:
// consuming callees (releases, Deliver, append) end ownership; any other
// callee merely borrows it for the duration of the call.
func callEffect(pass *analysis.Pass, call *ast.CallExpr, acq acquisition) effect {
	used := false
	for _, arg := range call.Args {
		if isVar(pass, arg, acq.obj) {
			used = true
			break
		}
	}
	if !used {
		return none
	}
	name := calleeName(pass, call)
	if consumers[acq.kind][name] {
		return released
	}
	// Closures taking the value by argument get ownership too: the analysis
	// cannot see inside them.
	if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
		return released
	}
	return none
}

// calleeName resolves the called function or builtin's bare name.
func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			return b.Name()
		}
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn.Name()
		}
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isVar reports whether expr is exactly the tracked variable (through
// parens).
func isVar(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	return pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj
}

// callUsesVar reports whether the tracked value appears among a call's
// arguments (go/defer transfer).
func callUsesVar(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	for _, arg := range call.Args {
		if isVar(pass, arg, obj) {
			return true
		}
	}
	return false
}
