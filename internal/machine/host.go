package machine

import (
	"iter"
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
// polled and missed. Enter runs the processor's whole execution, and Lend
// lets a transport goroutine run it. Interrupt and Lend are the only
// methods that may be invoked from outside the processor's own execution.
// No layer asks which kind of host it has: these methods are the whole
// difference (DESIGN.md "No host forks").
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
	// Enter runs body as this processor's execution and returns when body
	// does. body gets turn, which the processor's thread scheduler calls as
	// each thread's turn begins (a switch-in, or a yield that switches
	// nowhere); nil if the host needs no such call.
	Enter(body func(turn func()))
	// Lend runs deliver, a transport goroutine's hand-over of an arrival to
	// this processor, and may then run the processor on the calling
	// goroutine: until it parks again, or until a second thread turn
	// begins. The caller holds no lock.
	Lend(deliver func())
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

// Enter runs body: the PE already runs inside its sim process, a coroutine
// of whichever goroutine runs the kernel, and no thread turn concerns it.
func (h *SimHost) Enter(body func(turn func())) { body(nil) }

// Lend runs deliver and lends nothing: a simulated arrival is an event
// callback, and the process it signals runs when the kernel picks it.
func (h *SimHost) Lend(deliver func()) { deliver() }

// RealHost runs against the wall clock: Charge does nothing (real operations
// carry their real cost; the cost model is a simulation input only), Compute
// spins for the requested work, and Relax yields the OS thread so processing
// elements that share a core take turns where one of them waits.
//
// The PE's execution is a coroutine (iter.Pull) of its home goroutine, the
// one that called Enter, the way a SimHost's runs inside a sim process. Idle
// (and Pause and Missed, which are Idle) first consumes a pending Interrupt;
// only without one does the PE switch out, to whichever goroutine resumed
// it. Home then parks on a condition variable until an Interrupt, so a
// waiting processor leaves Go's run queue at once. A transport reader that
// has just handed the idle PE an arrival runs it instead (Lend): one
// coroutine switch, with no wake-up of home through the Go scheduler. A
// lend runs one thread turn, the one the arrival woke: the PE goes back to
// home as its scheduler begins a second (turn), so a lent PE that polls
// instead of parking polls on home. A host used without Enter parks its
// caller in Idle, as its home.
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
	// interrupt is already pending; Idle consumes a pending one lock-free.
	signal atomic.Bool

	// state is where the PE is (peRunning, ...). Only the goroutine the PE
	// switched out to publishes peIdle, peHome or peDone, after the switch
	// has landed, so whoever claims the PE back (a CompareAndSwap to
	// peRunning) never resumes a coroutine that is still running.
	state atomic.Int32
	// lenders counts goroutines inside Lend's deliver. An Interrupt raised
	// meanwhile wakes nobody: the lender serves it when deliver returns.
	lenders atomic.Int32

	// entered is set while a body runs (Enter). in resumes the body's
	// coroutine on the calling goroutine and reports how it came back
	// (true: idle; false: handed back to home; ok false: finished); out,
	// called from inside the PE, switches back to whoever resumed it. Both
	// are nil outside Enter. pan is a panic out of the body, re-raised by
	// Enter on home.
	entered atomic.Bool
	in      func() (bool, bool)
	out     func(bool) bool
	pan     any
	// lent is set while the PE runs on a lender; the resumer sets it (and
	// clears turns) before it switches in. turns counts the thread turns
	// the lend has begun.
	lent  atomic.Bool
	turns int

	homeWakes, lends atomic.Uint64
}

// PE states of a RealHost.
const (
	peRunning int32 = iota // executing, on home or a lender, or switching out
	peIdle                 // switched out in Idle: claimed by whoever finds the latch set
	peParked               // no body entered: Idle's caller waits, and claims itself
	peHome                 // handed back by a lender while runnable: home resumes it
	peDone                 // the body has returned
)

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
// sharing"). A lent PE does not yield: its lender woke for it, and moving
// the lender's goroutine through Go's global run queue cost ~2 µs of a
// ~24 µs Scheduler-polls (PS) round trip over tcpnet on a 2-vCPU host. The
// lend lasts one thread turn (see turn); a loop that polls across turns
// polls on home, where Relax yields.
func (h *RealHost) Relax() {
	if !h.lent.Load() {
		runtime.Gosched()
	}
}

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
	if h.out != nil {
		h.out(true) // whoever claims the PE back found the latch set
	} else {
		// No body entered: the caller is the home and parks itself.
		h.state.Store(peParked)
		h.await()
	}
	h.signal.Store(false)
}

func (h *RealHost) Interrupt() {
	if h.signal.Swap(true) || h.lenders.Load() > 0 {
		// Already pending: the next Idle consumes it, and whoever set it
		// first has woken home if it had to. Or a lender is delivering to
		// this PE, and runs it when its delivery returns.
		return
	}
	h.wakeHome()
}

// Enter runs body as the PE and makes the calling goroutine the PE's home:
// body runs as a coroutine of it, Enter returns when body does (on
// whichever goroutine it finished), and a panic out of body is re-raised
// here, on home, with its own value. One body runs at a time.
func (h *RealHost) Enter(body func(turn func())) {
	if !h.entered.CompareAndSwap(false, true) {
		panic("machine: RealHost.Enter while a body runs")
	}
	defer h.entered.Store(false)
	h.in, _ = iter.Pull(func(out func(bool) bool) {
		h.out = out
		defer func() { h.pan = recover() }()
		body(h.turn)
	})
	for h.resume(false) && h.await() {
	}
	h.in, h.out = nil, nil
	h.state.Store(peRunning)
	if v := h.pan; v != nil {
		h.pan = nil
		panic(v)
	}
}

// Lend runs deliver and then, if the PE is idle with an interrupt pending,
// runs it on the calling goroutine until it parks, goes home (turn) or
// finishes. An Interrupt raised while deliver runs is this call's to
// serve, so a transport reader that completes an idle PE's receive
// switches straight into it: no wake-up of home through the Go scheduler.
func (h *RealHost) Lend(deliver func()) {
	h.lenders.Add(1)
	deliver()
	h.lenders.Add(-1)
	if h.signal.Load() && h.state.CompareAndSwap(peIdle, peRunning) {
		h.lends.Add(1)
		h.resume(true)
	}
	h.wakeHome()
}

// Wakeups reports how many times home was woken from its wait through the
// Go scheduler (not counting the wake-up that tells it the PE finished),
// and how many times a lender ran the PE instead.
func (h *RealHost) Wakeups() (home, lent uint64) {
	return h.homeWakes.Load(), h.lends.Load()
}

// resume runs the PE on the calling goroutine until it switches back out,
// then publishes where it stopped. It reports false once body has returned.
func (h *RealHost) resume(lent bool) bool {
	h.lent.Store(lent)
	h.turns = 0
	idle, ok := h.in()
	switch {
	case !ok:
		h.state.Store(peDone)
	case idle:
		h.state.Store(peIdle)
	default:
		h.state.Store(peHome)
	}
	return ok
}

// turn is the hook Enter hands its body. A lend runs the first thread turn
// it begins — the thread its arrival woke — and the scheduling work around
// it; the PE goes home as a second begins, and turn returns once home runs
// it. So a lent PE hands its lender back by the first scheduling point
// after the woken thread's turn that does not park it: a Thread-polls
// (TP) waiter's yield, or a poll loop's next pass.
func (h *RealHost) turn() {
	if h.lent.Load() {
		if h.turns++; h.turns > 1 {
			h.out(false)
		}
	}
}

// await parks home until it claims the PE back — handed back, or idle with
// the latch set — and reports false if the PE finished on a lender instead.
func (h *RealHost) await() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		switch st := h.state.Load(); st {
		case peDone:
			return false
		case peHome:
			if h.state.CompareAndSwap(peHome, peRunning) {
				return true
			}
		case peIdle, peParked:
			if h.signal.Load() && h.state.CompareAndSwap(st, peRunning) {
				return true
			}
		}
		h.cond.Wait()
		if h.state.Load() != peDone {
			h.homeWakes.Add(1)
		}
	}
}

// wakeHome signals home if the PE needs it: handed back, finished, or idle
// with an interrupt pending. A running PE sees the latch at its next Idle,
// and the goroutine it switches out to checks the latch after publishing
// peIdle, so no wake-up is lost between the two.
func (h *RealHost) wakeHome() {
	switch h.state.Load() {
	case peRunning:
		return
	case peIdle, peParked:
		if !h.signal.Load() {
			return
		}
	}
	h.mu.Lock()
	h.cond.Signal()
	h.mu.Unlock()
}

func (h *RealHost) Model() *Model { return h.model }
