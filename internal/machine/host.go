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
// Interrupt is called (message arrival, wakeup). Interrupt is the only
// method that may be invoked from outside the processor's own execution.
type Host interface {
	// Now reports the processor-local current time.
	Now() sim.Time
	// Charge consumes d of CPU time (runtime overhead: switches, tests, ...).
	Charge(d sim.Duration)
	// Compute consumes units of application work.
	Compute(units int64)
	// Relax marks a point where this processor has just made work for
	// another one (a message handed off) or found none for itself (a missed
	// poll, a yield with nobody to switch to). Real hosts offer their OS
	// thread to the other processing elements there; under simulation it
	// does nothing, so no event stream depends on where it is called.
	Relax()
	// Idle parks until Interrupt is called. Interrupts are coalesced: an
	// Interrupt delivered while runnable satisfies the next Idle.
	Idle()
	// Interrupt wakes the processor from Idle (or satisfies the next Idle).
	Interrupt()
	// Model reports the cost model this host charges against.
	Model() *Model
	// Deterministic reports whether this host's runs must be bit-for-bit
	// repeatable (the discrete-event simulator) or merely correct (the wall
	// clock). Optimizations whose effects depend on scheduling order —
	// allocation pooling, batched cost charging — are gated off when true.
	Deterministic() bool
}

// SimHost runs a processing element inside the discrete-event simulator:
// Charge advances the PE's virtual clock, Idle parks the sim process, and
// Interrupt signals it. All methods except Interrupt must be invoked from
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
func (h *SimHost) Relax()              {}
func (h *SimHost) Idle()               { h.proc.WaitSignal() }
func (h *SimHost) Interrupt()          { h.proc.Signal() }
func (h *SimHost) Model() *Model       { return h.model }
func (h *SimHost) Deterministic() bool { return true }

// RealHost runs against the wall clock: Charge does nothing (real operations
// carry their real cost; the cost model is a simulation input only), Compute
// spins for the requested work, Relax yields the OS thread so processing
// elements that share a core take turns at message boundaries, and
// Idle/Interrupt combine a bounded spin phase with a condition-variable
// park, so a wakeup that lands within microseconds — the common case on the
// batched ingress path — is caught without a futex round trip, while a
// genuinely idle processor still sleeps instead of burning CPU.
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
	// interrupt is already pending; the spin phase consumes it lock-free,
	// and the park phase re-checks it under mu so no wakeup is lost.
	signal atomic.Bool
}

// spinBudget is the number of wakeup checks (each a signal load plus an OS
// yield) Idle performs before parking. Each miss yields the OS scheduler, so
// the spin phase costs a few microseconds of politeness, not a core.
const spinBudget = 256

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
// every pass through them reaches a Relax (a send, a missed poll, or a
// no-switch yield; see DESIGN.md "Processor sharing").
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

func (h *RealHost) Idle() {
	// Spin-then-park: consume an interrupt lock-free within the budget
	// (counted, so detlint's unbounded-busy-wait check holds), then fall
	// back to the condition variable.
	for i := spinBudget; i > 0; i-- {
		if h.signal.Load() {
			h.signal.Store(false)
			return
		}
		runtime.Gosched()
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
		// Already pending: a spinner or parked waiter will consume it, and
		// whoever set it first has signaled the condition variable.
		return
	}
	h.mu.Lock()
	h.cond.Signal()
	h.mu.Unlock()
}

func (h *RealHost) Model() *Model { return h.model }

func (h *RealHost) Deterministic() bool { return false }
