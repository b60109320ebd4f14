package machine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chant/internal/sim"
)

// Host is the execution substrate of one simulated processing element (or,
// in real mode, one OS-level scheduling domain). The thread scheduler and
// communication layers consume time exclusively through a Host, which lets
// identical runtime code execute under the discrete-event simulator or
// against the wall clock.
//
// Charge consumes CPU time on the hosting processor. Compute consumes
// application work in model compute units. Relax offers the processor to
// whoever else can use it, without parking. Idle parks the processor until
// Interrupt is called (message arrival, wakeup); Pause is a scheduler's idle
// step, and Missed ends a scheduling pass in which every runnable thread
// polled and missed. Interrupt is the only method that may be invoked from
// outside the processor's own execution. No layer asks which kind of host
// it has: these methods are the whole difference (DESIGN.md "No host
// forks").
type Host interface {
	// Now reports the processor-local current time.
	Now() sim.Time
	// Charge consumes d of CPU time (runtime overhead: switches, tests, ...).
	Charge(d sim.Duration)
	// Compute consumes units of application work.
	Compute(units int64)
	// Relax marks a point where this processor has found no work for
	// itself: a missed poll, a Scheduler-polls (PS) wait about to park its
	// thread, a yield with nobody to switch to. A send is not such a point;
	// the sender relaxes where it next waits. Real hosts offer their OS
	// thread to the other processing elements there; under simulation it
	// does nothing, so no event stream depends on where it is called.
	Relax()
	// Idle parks until Interrupt is called. Interrupts are coalesced: an
	// Interrupt delivered while runnable satisfies the next Idle.
	Idle()
	// Pause is a thread scheduler's idle step: nothing is runnable but a
	// wakeup can still come. It parks like Idle or passes time without
	// parking; either way a pending Interrupt is not lost.
	Pause()
	// Missed ends a scheduling pass in which every thread that could run
	// has polled its request and missed: until an Interrupt comes, nothing
	// on this processor can make progress. It parks like Idle or returns
	// at once; either way a pending Interrupt is not lost.
	Missed()
	// Interrupt wakes Idle, Pause or Missed (or satisfies the next one).
	Interrupt()
	// Model reports the cost model this host charges against.
	Model() *Model
}

// SimHost runs a processing element inside the discrete-event simulator:
// Charge advances the PE's virtual clock, Idle parks the sim process,
// Interrupt signals it, Pause advances IdleRecheckGap without parking
// (the Paragon's interrupt-free recheck, counted in Tables 3–5), and Missed
// does nothing: the paper's Scheduler polls (PS) keeps polling, each poll
// charged by the model. All methods except Interrupt must be invoked from
// the (single) goroutine currently animating the PE's sim process; Interrupt
// delegates to Proc.Signal, which any simulation context (an event callback
// or another running process) may call.
type SimHost struct {
	proc  *sim.Proc
	model *Model
}

// NewSimHost wraps a simulation process as a Host charging against model.
func NewSimHost(proc *sim.Proc, model *Model) *SimHost {
	return &SimHost{proc: proc, model: model}
}

func (h *SimHost) Now() sim.Time         { return h.proc.Now() }
func (h *SimHost) Charge(d sim.Duration) { h.proc.Advance(d) }
func (h *SimHost) Compute(units int64) {
	h.proc.Advance(sim.Duration(units) * h.model.ComputeUnit)
}
func (h *SimHost) Relax()        {}
func (h *SimHost) Idle()         { h.proc.WaitSignal() }
func (h *SimHost) Pause()        { h.proc.Advance(h.model.IdleRecheckGap) }
func (h *SimHost) Missed()       {}
func (h *SimHost) Interrupt()    { h.proc.Signal() }
func (h *SimHost) Model() *Model { return h.model }

// RealHost runs against the wall clock: Charge does nothing (real operations
// carry their real cost; the cost model is a simulation input only), Compute
// spins for the requested work, Relax yields the OS thread so processing
// elements that share a core take turns where one of them waits, and Idle
// (and Pause and Missed, which are Idle) parks on a condition variable until
// Interrupt: a waiting processor leaves Go's run queue at once, so the
// goroutines it waits for — a peer PE, a transport's reader parked in the
// netpoller — get the processor instead of a spinner.
type RealHost struct {
	model *Model
	start time.Time

	// sink keeps Compute's spin loop live. Per host, not per package: two
	// real-mode PEs compute concurrently.
	sink uint64

	mu   sync.Mutex
	cond *sync.Cond

	// signal is the sticky interrupt latch. Producers publish it with a
	// lock-free Swap so the delivery fast path never touches mu when an
	// interrupt is already pending; Idle consumes a pending one lock-free,
	// and otherwise re-checks it under mu so no wakeup is lost.
	signal atomic.Bool
}

// NewRealHost returns a Host that reports wall-clock time relative to its
// creation.
func NewRealHost(model *Model) *RealHost {
	// RealHost *is* the sanctioned wall-clock boundary: every other
	// package reads time through a Host so that only this one touches it.
	//chant:allow-nondet RealHost is the wall-clock abstraction itself
	h := &RealHost{model: model, start: time.Now()}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *RealHost) Now() sim.Time {
	//chant:allow-nondet RealHost is the wall-clock abstraction itself
	return sim.Time(time.Since(h.start).Nanoseconds())
}

// Charge does nothing in real mode: real operations take real time, and the
// runtime charges on every hot-path step, so anything done here is paid ten
// times per round trip. Sharing the OS processor is Relax's job.
func (h *RealHost) Charge(d sim.Duration) {}

// Relax yields the OS thread to the other processing elements' goroutines.
// Polling loops stay live on a host with fewer cores than PEs only because
// every pass through them reaches a Relax (a missed poll, the PS wait's
// offer before it parks, or a no-switch yield; see DESIGN.md "Processor
// sharing").
func (h *RealHost) Relax() { runtime.Gosched() }

// Compute spins for approximately units iterations of trivial work so real
// and simulated workloads have comparable structure.
func (h *RealHost) Compute(units int64) {
	var acc uint64 = 0x9E3779B9
	for i := int64(0); i < units; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
	}
	h.sink = acc
}

func (h *RealHost) Pause()  { h.Idle() }
func (h *RealHost) Missed() { h.Idle() }

func (h *RealHost) Idle() {
	if h.signal.Load() {
		h.signal.Store(false)
		return
	}
	h.mu.Lock()
	for !h.signal.Load() {
		h.cond.Wait()
	}
	h.signal.Store(false)
	h.mu.Unlock()
}

func (h *RealHost) Interrupt() {
	if h.signal.Swap(true) {
		// Already pending: the next Idle consumes it, and whoever set it
		// first has signaled the condition variable.
		return
	}
	h.mu.Lock()
	h.cond.Signal()
	h.mu.Unlock()
}

func (h *RealHost) Model() *Model { return h.model }
