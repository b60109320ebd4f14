package sim

import (
	"errors"
	"fmt"

	"chant/internal/check"
)

// Kernel is a sequential discrete-event simulator. Events — kernel callbacks
// and process resumptions — execute strictly in (time, insertion) order, so
// simulations are deterministic. At any moment at most one goroutine runs,
// which means shared simulator state needs no locking. There is no kernel
// goroutine: whoever gives up the processor — Run at the start, then each
// process as it advances, parks or finishes — runs the event loop (next) on
// its own goroutine and resumes the chosen process directly, so a switch
// between two processes is one goroutine hand-off and a process that finds
// itself next just keeps running. Run's goroutine sleeps until a process
// finds the run over.
type Kernel struct {
	now      Time
	seq      uint64
	heap     eventHeap
	procs    []*Proc
	running  bool
	stopped  bool
	deadline Time // of the current Run; 0 means none

	// over wakes Run's goroutine: the process that was dispatching found
	// the run finished (no events, Stop, deadline) or caught a panic.
	over chan struct{}
	// pan is a panic caught while a process goroutine was running the event
	// loop, handed to Run to be raised on the goroutine that called it.
	pan any

	// handoffs counts goroutine hand-offs, in chantdebug builds only.
	handoffs uint64

	// Events counts every event dispatched, for diagnostics.
	Events uint64
}

// ErrDeadlock is returned by Run when live processes remain but no events are
// scheduled, meaning the simulation can never make progress.
var ErrDeadlock = errors.New("sim: deadlock: live processes but no pending events")

// NewKernel returns an empty simulator with the clock at zero.
func NewKernel() *Kernel { return &Kernel{over: make(chan struct{})} }

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
// A panic raised by an event callback is re-raised here, on the goroutine
// that called Run, with its original value, whichever goroutine happened to
// be running the event loop when it fired.
func (k *Kernel) Run(deadline Time) error {
	if k.running {
		panic("sim: Kernel.Run called reentrantly")
	}
	k.running = true
	k.stopped = false
	k.deadline = deadline
	defer func() { k.running = false }()

	if p := k.next(); p != nil {
		p.switchIn()
		<-k.over
		if v := k.pan; v != nil {
			k.pan = nil
			panic(v)
		}
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

// nextCaught is next for a process goroutine, where a panic would kill the
// program with no caller to recover it: the panic is stashed for Run to
// re-raise and reported as the end of the run.
func (k *Kernel) nextCaught() (q *Proc) {
	defer func() {
		if v := recover(); v != nil {
			k.pan, q = v, nil
		}
	}()
	return k.next()
}

// next is the event loop: it runs callbacks inline on the calling goroutine
// until a process is due and returns it, or returns nil when the run is over
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
