// Package ult implements the lightweight user-level thread package Chant
// builds on, providing the paper's Figure-2 capability set: thread
// management (create, exit, join, detach, cancel), cooperative scheduling
// with priorities and yield, thread-local data, and synchronization
// (mutexes and condition variables) — plus the two scheduler extension
// points the paper's polling algorithms need:
//
//   - a pre-schedule hook invoked at every scheduling point (used by the
//     Scheduler-polls (WQ) algorithm to walk its request list), and
//   - a per-TCB pending check honored during a *partial* context switch:
//     the scheduler inspects the next TCB and tests its outstanding request
//     before paying for a full restore (the Scheduler-polls (PS) algorithm).
//
// Threads are runtime coroutines (iter.Pull) of Sched.Run and strictly
// cooperative: within one scheduler exactly one thread (or Run itself) runs
// at a time, control moves only at explicit switch points, and every
// complete context switch is counted and charged against the machine cost
// model. This makes the scheduler's behaviour — and therefore the paper's
// CtxSw and msgtest columns — deterministic under the simulation kernel.
package ult

import (
	"errors"
	"fmt"

	"chant/internal/sim"
)

// State describes where a thread is in its lifecycle.
type State int

const (
	// Ready threads are in the run queue (possibly with a pending request
	// awaiting a partial-switch test).
	Ready State = iota
	// Running is the single thread currently executing on the processor.
	Running
	// Blocked threads left the run queue and wait for an explicit Unblock
	// (mutex, condition variable, join, or a scheduler-polls receive).
	Blocked
	// Done threads have finished; their result awaits any joiner.
	Done
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return "invalid"
}

// Errors returned by thread-management operations.
var (
	// ErrDetached reports a join attempt on a detached thread.
	ErrDetached = errors.New("ult: thread is detached")
	// ErrSelfJoin reports a thread attempting to join itself.
	ErrSelfJoin = errors.New("ult: thread cannot join itself")
	// ErrCanceled is the join result for a thread that was canceled.
	ErrCanceled = errors.New("ult: thread was canceled")
	// ErrDeadlock reports a scheduler with blocked threads and no possible
	// source of wakeups.
	ErrDeadlock = errors.New("ult: deadlock: blocked threads with no wakeup source")
	// ErrKilled reports a scheduler terminated by Kill (a simulated PE
	// crash or an external shutdown): every thread was canceled and the run
	// did not complete normally.
	ErrKilled = errors.New("ult: scheduler killed")
)

// exitSignal and cancelSignal unwind a thread's stack to its trampoline.
type exitSignal struct{ value any }
type cancelSignal struct{}

// PanicError wraps a panic that escaped a thread body, carrying the thread's
// identity for diagnosis. The scheduler re-raises it in the context that
// called Run.
type PanicError struct {
	Thread string
	Value  any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("ult: thread %q panicked: %v", e.Thread, e.Value)
}

// TCB is a thread control block: the unit the scheduler manages, directly
// mirroring the paper's TCB discussion in Section 4.2.
type TCB struct {
	id    int32
	name  string
	sched *Sched
	state State
	prio  int
	fn    func()

	// in switches from Sched.Run into the thread's coroutine, out from the
	// thread back to Run; both nil until the first resumption.
	in  func() (struct{}, bool)
	out func(struct{}) bool

	// Ready-queue bookkeeping (see queue.go): enqueue sequence number (the
	// within-priority FIFO tiebreak), the priority bucket the TCB currently
	// sits in, and whether it is queued at all. readyPrio can lag prio only
	// between SetPriority's update and the move it triggers.
	readySeq  uint64
	readyPrio int
	inReady   bool

	// Pending, when non-nil, is this thread's outstanding polling request
	// (Scheduler-polls (PS)): the scheduler invokes it during a partial
	// switch and only restores the thread when it reports true. The check
	// itself charges its own cost (it is a msgtest in the comm layer).
	Pending func() bool

	daemon   bool
	detached bool
	canceled bool
	result   any
	joiners  []*TCB

	// onCancel is cleanup run synchronously by Cancel while the thread is
	// parked: it removes the thread from whatever waiter list it is on so
	// the cancel unwind needs no cleanup of its own.
	onCancel func()

	// WaitBox is scratch storage the process's polling policy attaches to
	// the thread, so per-wait state (the pending check, the cancel hook)
	// can live in one reusable allocation per thread instead of fresh
	// closures on every blocking receive. Owned entirely by the policy;
	// the scheduler never looks inside.
	WaitBox any

	// blockedAt remembers when this thread last blocked, so Unblock can
	// emit the blocked-interval span, and runBegin when it was last
	// switched in, so switch-out can emit the occupancy span. Only
	// maintained when the scheduler has a tracer attached.
	blockedAt sim.Time
	runBegin  sim.Time

	locals map[*Key]any
	// localOrder remembers key insertion order so destructors run
	// deterministically (map iteration order would vary run to run, which
	// the simulated experiments cannot tolerate).
	localOrder []*Key
}

// SetOnCancel registers cleanup to run if this thread is canceled while
// waiting; blocking primitives install it before parking and clear it
// after. Passing nil clears it.
func (t *TCB) SetOnCancel(fn func()) { t.onCancel = fn }

// ID reports the thread's scheduler-local identifier. The main thread of a
// scheduler has ID 0; subsequent threads count up from 1.
func (t *TCB) ID() int32 { return t.id }

// Name reports the thread's debug name.
func (t *TCB) Name() string { return t.name }

// State reports the thread's current lifecycle state.
func (t *TCB) State() State { return t.state }

// Priority reports the thread's scheduling priority (higher runs first).
func (t *TCB) Priority() int { return t.prio }

// SetPriority changes the thread's priority. Taking effect at the next
// scheduling decision, it implements the paper's server-thread boost: "the
// server thread assumes a higher scheduling priority ... ensuring that it
// is scheduled at the next context switch point". If the thread is sitting
// in the ready queue, it is relocated to its new priority's deque at its
// enqueue-order rank, so the next pick sees the change exactly as the old
// pick-time linear scan did.
func (t *TCB) SetPriority(p int) {
	if p == t.prio {
		return
	}
	old := t.prio
	t.prio = p
	if t.inReady && t.sched != nil {
		t.sched.ready.move(t, old, p)
	}
}

// Daemon reports whether the thread is a daemon (the scheduler does not
// wait for daemons; they are reaped when all regular threads finish).
func (t *TCB) Daemon() bool { return t.daemon }

// Canceled reports whether cancellation has been requested.
func (t *TCB) Canceled() bool { return t.canceled }

// Detach marks the thread's storage for reclamation on exit, so no thread
// may join it (pthread_chanter_detach).
func (t *TCB) Detach() { t.detached = true }

// Detached reports whether the thread has been detached.
func (t *TCB) Detached() bool { return t.detached }
