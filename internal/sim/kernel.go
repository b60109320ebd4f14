package sim

import (
	"errors"
	"fmt"

	"chant/internal/check"
)

// Kernel is a sequential discrete-event simulator. Events — kernel callbacks
// and process resumptions — execute strictly in (time, insertion) order, so
// simulations are deterministic. At any moment at most one goroutine runs,
// which means shared simulator state needs no locking. Every process is a
// coroutine, and whoever gives up the processor runs the event loop itself:
// Run at the start, then each process as it advances, parks or finishes.
// Due callbacks run inline on that goroutine, a process that is itself next
// keeps running with no switch, and any other process is switched to
// directly — into it if it is suspended, back up to it if it is one of the
// running process's own resumers. Two alternating processes thus cost one
// coroutine switch per hand-off, and none passes through the Go scheduler's
// run queue. A panic raised by a callback on a process's goroutine is caught
// by the loop and re-raised from Run, never seen by a process body.
type Kernel struct {
	now      Time
	seq      uint64
	heap     eventHeap
	procs    []*Proc
	running  bool
	deadline Time // of the current Run; 0 means none

	// pending is the process chosen to run next, left by a process that
	// switches back up to its resumer or finishes; nil means the run is over.
	pending *Proc
	// pan is a panic caught on a process's goroutine, for Run to re-raise.
	pan any

	// handoffs counts coroutine switches, in chantdebug builds only.
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

// Run executes events until none remain or the deadline passes. A deadline
// of 0 means no deadline. It returns ErrDeadlock if all events are
// exhausted while some spawned process has neither finished nor parked
// forever by choice (a parked process with no pending wake counts as
// deadlocked, since nothing can ever signal it once the event heap is empty).
// A run cut short by the deadline leaves its processes suspended where they
// yielded; a later Run resumes them.
//
// A panic raised by an event callback, or escaping a process body, unwinds
// out of Run on the goroutine that called it, with its original value. A
// callback may run on a process's goroutine, but the loop that runs it
// catches the panic and every process between there and Run switches back
// up without returning to its body, so no recover in a process body (or,
// one layer up, a ult thread's) can intercept it and blame the wrong party.
func (k *Kernel) Run(deadline Time) error {
	if k.running {
		panic("sim: Kernel.Run called reentrantly")
	}
	k.running = true
	k.deadline = deadline
	defer func() { k.running = false }()

	for p := k.loop(event{}); p != nil; p = k.pending {
		p.resume()
	}
	if v := k.pan; v != nil {
		k.pan = nil
		panic(v)
	}
	if k.heap.Len() > 0 {
		return nil // the deadline cut the run short
	}
	for _, p := range k.procs {
		if p.state != procDone {
			return fmt.Errorf("%w (process %q is %s at %v)", ErrDeadlock, p.name, p.state, k.now)
		}
	}
	return nil
}

// loop is the event loop. Starting with e, if it is set, and then from the
// heap, it runs callbacks inline until a process is due and returns it, or
// returns nil when the run is over (no events left, or the next event lies
// past the deadline, in which case the clock moves to the deadline). A
// panic out of a callback is kept in k.pan, also ending the run: one guard
// per entry, so a callback costs no defer of its own.
func (k *Kernel) loop(e event) (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			k.pan, next = r, nil
		}
	}()
	for {
		if e.fn == nil && e.proc == nil {
			if k.heap.Len() == 0 {
				return nil
			}
			e = k.heap.pop()
		}
		if k.deadline != 0 && e.at > k.deadline {
			k.heap.push(e)
			k.now = k.deadline
			return nil
		}
		if check.Enabled && e.at < k.now {
			check.Failf("sim: event heap went backwards: popped event at %v with the clock already at %v (%d events dispatched)", e.at, k.now, k.Events)
		}
		k.now = e.at
		k.Events++
		if e.proc != nil {
			return e.proc
		}
		fn := e.fn
		e = event{}
		fn()
	}
}

// transfer hands the processor from cur, which has just given it up, to
// next, the process the event loop chose (nil when the run is over), and
// returns once cur is chosen again. A process that is not one of cur's
// resumers is switched into directly, and cur becomes its resumer.
// Otherwise cur switches back up to its own resumer, leaving next in
// k.pending; each resumer on the way that is not next does the same, and
// Run's loop, at the top, resumes next or ends.
func (k *Kernel) transfer(cur, next *Proc) {
	for next != cur {
		if next == nil || next.resuming {
			k.pending = next
			cur.out(struct{}{})
			break // whoever switched back into cur chose it
		}
		cur.resuming = true
		next.resume()
		cur.resuming = false
		next = k.pending
	}
	cur.state = procRunning
}
