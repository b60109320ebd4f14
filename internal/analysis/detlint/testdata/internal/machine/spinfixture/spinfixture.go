// Package spinfixture seeds spin-loop shapes for detlint's bounded-spin
// check inside a simulation-critical package path (internal/machine/...):
// unbounded atomic busy-wait loops must be flagged, while the sanctioned
// shapes — the counted spin-then-park budget, condition-variable rechecks,
// CAS retry loops — must stay silent.
package spinfixture

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinForever is the shape the check exists for: nothing in the loop can
// ever surrender the processor.
func spinForever(flag *atomic.Bool) {
	for !flag.Load() { // want `unbounded spin loop in simulation-critical package`
	}
}

// spinWithGosched still burns the processor forever; yielding the OS thread
// each lap does not bound the wait.
func spinWithGosched(flag *atomic.Bool) {
	for !flag.Load() { // want `unbounded spin loop in simulation-critical package`
		runtime.Gosched()
	}
}

// spinInfiniteBody polls inside a bare for{}; the break is reachable only
// if another processor stores the flag.
func spinInfiniteBody(flag *atomic.Bool) int {
	laps := 0
	for { // want `unbounded spin loop in simulation-critical package`
		if flag.Load() {
			break
		}
		laps++
	}
	return laps
}

// spinPackageAtomics uses the package-level atomic functions rather than
// method calls; same shape, same finding.
func spinPackageAtomics(word *int32) {
	for atomic.LoadInt32(word) == 0 { // want `unbounded spin loop in simulation-critical package`
	}
}

// countedSpin is the sanctioned spin-then-park budget: the loop bounds
// itself by construction, so the caller parks after at most budget laps.
func countedSpin(flag *atomic.Bool, budget int) bool {
	for i := budget; i > 0; i-- {
		if flag.Load() {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// condRecheck is the condition-variable wait idiom: Wait parks, so the
// recheck loop never busy-waits.
func condRecheck(flag *atomic.Bool, cond *sync.Cond) {
	for !flag.Load() {
		cond.Wait()
	}
}

// casRetry is a lock-free retry loop: it re-runs only while another
// processor succeeds first, which is forward progress, not waiting.
func casRetry(v *atomic.Int64) {
	for {
		old := v.Load()
		if v.CompareAndSwap(old, old+1) {
			return
		}
	}
}

// drainLoop calls an arbitrary function each lap; the analyzer cannot see
// whether it blocks or makes progress, so it stays silent.
func drainLoop(flag *atomic.Bool, drain func()) {
	for !flag.Load() {
		drain()
	}
}

// sanctioned carries an explicit justification and stays silent.
func sanctioned(flag *atomic.Bool) {
	//chant:allow-nondet fixture: startup handshake, bounded externally by a test timeout
	for !flag.Load() {
	}
}

// walkList has no atomic traffic at all: a pointer-chasing loop (a
// linked-list walk) is plain computation, not a spin.
type node struct{ next *node }

func walkList(head *node) int {
	n := 0
	for head != nil {
		head = head.next
		n++
	}
	return n
}
