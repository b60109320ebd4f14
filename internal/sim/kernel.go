package sim

import (
	"errors"
	"fmt"

	"chant/internal/check"
)

// Kernel is a sequential discrete-event simulator. Events — kernel callbacks
// and process resumptions — execute strictly in (time, insertion) order, so
// simulations are deterministic. At any moment at most one goroutine runs,
// which means shared simulator state needs no locking. Run is the only event
// loop: every callback runs on the goroutine that called Run, and every
// process is a coroutine that Run resumes and that yields back to Run, so a
// switch between two processes is two coroutine switches and never passes
// through the Go scheduler's run queue.
type Kernel struct {
	now      Time
	seq      uint64
	heap     eventHeap
	procs    []*Proc
	running  bool
	stopped  bool
	deadline Time // of the current Run; 0 means none

	// handoffs counts process resumptions, in chantdebug builds only.
	handoffs uint64

	// Events counts every event dispatched, for diagnostics.
	Events uint64
}

// ErrDeadlock is returned by Run when live processes remain but no events are
// scheduled, meaning the simulation can never make progress.
var ErrDeadlock = errors.New("sim: deadlock: live processes but no pending events")

// NewKernel returns an empty simulator with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error in the caller; the kernel panics to surface the bug immediately.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, k.now))
	}
	k.seq++
	k.heap.push(event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now.Add(d), fn) }

// scheduleProc enqueues a resumption of p at time t.
func (k *Kernel) scheduleProc(p *Proc, t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: proc %q resumed in the past: %v < now %v", p.name, t, k.now))
	}
	k.seq++
	k.heap.push(event{at: t, seq: k.seq, proc: p})
}

// Run executes events until none remain, the deadline passes, or Stop is
// called. A deadline of 0 means no deadline. It returns ErrDeadlock if all
// events are exhausted while some spawned process has neither finished nor
// parked forever by choice (a parked process with no pending wake counts as
// deadlocked, since nothing can ever signal it once the event heap is empty).
// A run cut short by the deadline or by Stop leaves its processes suspended
// where they yielded; a later Run resumes them.
//
// A panic raised by an event callback, or escaping a process body, unwinds
// out of Run on the goroutine that called it, with its original value. No
// callback ever runs on a process's goroutine, where the body's own recover
// (or, one layer up, a ult thread's) could intercept it and blame the wrong
// party.
func (k *Kernel) Run(deadline Time) error {
	if k.running {
		panic("sim: Kernel.Run called reentrantly")
	}
	k.running = true
	k.stopped = false
	k.deadline = deadline
	defer func() { k.running = false }()

	for p := k.next(); p != nil; p = k.next() {
		p.resume()
	}
	if k.stopped || k.heap.Len() > 0 {
		return nil // Stop, or the deadline, cut the run short
	}
	for _, p := range k.procs {
		if p.state != procDone {
			return fmt.Errorf("%w (process %q is %s at %v)", ErrDeadlock, p.name, p.state, k.now)
		}
	}
	return nil
}

// next is the body of the event loop: it runs callbacks inline until a
// process is due and returns it, or returns nil when the run is over
// (no events left, Stop called, or the next event lies past the deadline, in
// which case the clock moves to the deadline).
func (k *Kernel) next() *Proc {
	for k.heap.Len() > 0 && !k.stopped {
		if k.deadline != 0 && k.heap.peekTime() > k.deadline {
			k.now = k.deadline
			return nil
		}
		e := k.heap.pop()
		if check.Enabled && e.at < k.now {
			check.Failf("sim: event heap went backwards: popped event at %v with the clock already at %v (%d events dispatched)", e.at, k.now, k.Events)
		}
		k.now = e.at
		k.Events++
		if e.fn != nil {
			e.fn()
			continue
		}
		return e.proc
	}
	return nil
}

// Stop ends the run: no further event is dispatched once the current
// callback returns or the current process next yields. It is intended to be
// called from inside an event callback or process.
func (k *Kernel) Stop() { k.stopped = true }
