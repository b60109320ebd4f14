package ult

import (
	"fmt"
	"iter"
	"strings"
	"sync/atomic"

	"chant/internal/check"
	"chant/internal/machine"
	"chant/internal/trace"
)

// Options configures a scheduler.
type Options struct {
	// Name labels the scheduler in diagnostics (e.g. "pe0.p0").
	Name string
	// EventLog, when non-nil, records scheduler events (switches, blocks,
	// spawns, exits) for debugging; see trace.Log.
	EventLog *trace.Log
	// Tracer, when non-nil, receives scheduler spans (thread occupancy
	// from switch-in to switch-out, blocked intervals). Every emission is
	// gated on the nil check, so a scheduler without a tracer pays one
	// compare per site and gathers no timestamps.
	Tracer *trace.Tracer
	// PE labels this scheduler's spans with its processing element.
	PE int32
}

// SpawnOpts configures one thread at creation.
type SpawnOpts struct {
	// Priority orders ready threads; higher runs first, default 0.
	Priority int
	// Daemon threads do not keep the scheduler alive: when every regular
	// thread has finished, daemons are canceled and reaped. The Chant
	// server thread is a daemon.
	Daemon bool
}

// Sched is a cooperative user-level thread scheduler bound to one Host
// (one simulated processing element, or one goroutine-domain in real mode).
// All methods must be called from the scheduler's own context: inside Run,
// from one of its threads, or from the same process before Run.
type Sched struct {
	host machine.Host
	ctrs *trace.Counters
	opts Options

	ready ReadyQueue
	cur   *TCB
	// pending is the thread a parking or exiting thread's dispatch chose and
	// switched in, for Run's loop to resume once the coroutine switch back to
	// it lands; nil once the run is over. Every thread is a coroutine of
	// Run's goroutine, so a switch between two threads is two coroutine
	// switches — out to Run, in to the successor — with the scheduling
	// decision already made on the parking side.
	pending *TCB
	// over is set by the dispatch that finds the run finished — no regular
	// thread left, a deadlock (err), or a panic (pan) — and stays set until
	// Run returns.
	over bool
	err  error

	nextID      int32
	liveRegular int
	liveTotal   int
	blocked     int
	threads     []*TCB
	finished    int // Done entries in threads awaiting pruning

	// preSchedule runs at every scheduling point in dispatch
	// (Scheduler-polls (WQ) walks its request list here).
	preSchedule func()
	// hasExternalWaiters reports whether some blocked thread can still be
	// woken by an external event (an outstanding receive), distinguishing
	// "keep polling" from deadlock when the ready queue is empty.
	hasExternalWaiters func() bool

	// killed is the asynchronous whole-scheduler termination request (a
	// simulated PE crash). It is the only cross-context input to the
	// scheduler: any goroutine may set it; dispatch and the Yield fast
	// path observe it at their next scheduling point.
	killed atomic.Bool

	pan *PanicError

	// owner is the chantdebug scheduling-domain token: exactly one
	// goroutine — Run's or a thread's coroutine — holds it at a time. A
	// thread keeps it while it dispatches; it is released just before, and
	// acquired just after, each coroutine switch (resume, park). Inert (an
	// empty struct) in release builds.
	owner check.Owner
	// handoffs counts thread resumptions, in chantdebug builds only.
	handoffs uint64
}

// NewSched creates a scheduler charging host and counting into ctrs.
func NewSched(host machine.Host, ctrs *trace.Counters, opts Options) *Sched {
	return &Sched{host: host, ctrs: ctrs, opts: opts}
}

// logEvent records a scheduler event, reading the host clock only when a log
// is attached: on RealHost, Now is a time.Since.
func (s *Sched) logEvent(kind trace.EventKind, id int32) {
	if s.opts.EventLog == nil {
		return
	}
	s.opts.EventLog.Add(s.host.Now(), kind, id)
}

// Host reports the scheduler's execution host.
func (s *Sched) Host() machine.Host { return s.host }

// Counters reports the scheduler's event counters.
func (s *Sched) Counters() *trace.Counters { return s.ctrs }

// EventLog reports the scheduler's attached event log (nil when none).
func (s *Sched) EventLog() *trace.Log { return s.opts.EventLog }

// Current reports the running thread, or nil from scheduler context.
func (s *Sched) Current() *TCB { return s.cur }

// SetPreSchedule installs fn to run at every scheduling point, before the
// next thread is chosen. The Scheduler-polls (WQ) algorithm uses this to
// test its outstanding-request list (paper Figure 6).
func (s *Sched) SetPreSchedule(fn func()) { s.preSchedule = fn }

// SetExternalWaiters installs a predicate reporting whether any blocked
// thread could still be woken by an external event. Without it, an empty
// ready queue with blocked threads is treated as a deadlock.
func (s *Sched) SetExternalWaiters(fn func() bool) { s.hasExternalWaiters = fn }

// Spawn creates a ready thread running fn with default options.
func (s *Sched) Spawn(name string, fn func()) *TCB {
	return s.SpawnWith(name, fn, SpawnOpts{})
}

// SpawnWith creates a ready thread running fn with the given options,
// charging the thread-creation cost.
func (s *Sched) SpawnWith(name string, fn func(), o SpawnOpts) *TCB {
	if check.Enabled {
		s.owner.Assert("Sched.SpawnWith")
	}
	t := &TCB{
		id:     s.nextID,
		name:   name,
		sched:  s,
		state:  Ready,
		prio:   o.Priority,
		daemon: o.Daemon,
		fn:     fn,
	}
	s.nextID++
	s.threads = append(s.threads, t)
	s.liveTotal++
	if !o.Daemon {
		s.liveRegular++
	}
	s.ctrs.ThreadsCreated.Add(1)
	s.host.Charge(s.host.Model().ThreadCreate)
	s.ready.Push(t)
	s.logEvent(trace.EvSpawn, t.id)
	return t
}

// Run spawns main as thread 0 and schedules until every regular
// (non-daemon) thread has finished, then cancels and reaps any remaining
// daemons. It returns ErrDeadlock (wrapped, with a state dump) if blocked
// threads remain with no possible wakeup source, and re-raises any panic
// that escaped a thread body as a *PanicError. A panic raised at a
// scheduling point — by the pre-schedule hook, a Pending check or an
// invariant check — is wrapped the same way, naming the thread whose
// coroutine was dispatching, so it too surfaces here and not inside a
// thread.
func (s *Sched) Run(main func()) error {
	if check.Enabled {
		s.owner.Acquire("sched " + s.opts.Name)
		defer s.owner.Release()
	}
	s.over, s.err = false, nil
	s.Spawn("main", main)
	for t := s.dispatch("scheduler"); t != nil; t = s.pending {
		s.resume(t)
	}
	if s.pan != nil {
		panic(s.pan)
	}
	s.reapRemaining()
	if s.err != nil {
		return s.err
	}
	if s.killed.Load() {
		return ErrKilled
	}
	return nil
}

// dispatch is the scheduler proper. It runs on the goroutine of whoever is
// giving up the processor — Run at the start, then each thread as it parks
// or exits — with no thread current, and returns the thread to run next,
// already switched in (counted, charged, logged, current). That may be the
// caller itself. It returns nil once the run is over: every regular thread
// has finished, the threads are deadlocked (s.err), or a thread or this
// scheduling point panicked (s.pan, attributed to the dispatching thread
// by). From then on it always returns nil, which ends Run's loop.
func (s *Sched) dispatch(by string) (next *TCB) {
	defer func() {
		if v := recover(); v != nil {
			s.pan = &PanicError{Thread: by, Value: v}
			s.over = true
			next = nil
		}
	}()
	m := s.host.Model()
	for !s.over && s.pan == nil && s.liveRegular > 0 {
		if check.Enabled {
			s.audit()
		}
		if s.killed.Load() {
			s.killSweep()
		}
		if s.preSchedule != nil {
			s.preSchedule()
		}
		t := s.pickReady()
		if t == nil {
			if s.blocked == 0 {
				// Regular threads remain but none are ready or blocked:
				// impossible unless bookkeeping broke.
				panic("ult: scheduler invariant violated: live threads but none ready or blocked")
			}
			if s.hasExternalWaiters == nil || !s.hasExternalWaiters() {
				s.err = s.deadlockError()
				break
			}
			s.ctrs.IdleEntries.Add(1)
			s.logEvent(trace.EvIdle, -1)
			s.host.Pause()
			continue
		}
		if t.Pending != nil && !t.canceled {
			// Partial context switch: inspect the TCB's outstanding
			// request without restoring the thread (paper Section 4.2,
			// Scheduler polls (PS)).
			s.ctrs.PartialSwitches.Add(1)
			s.host.Charge(m.PartialSwitch)
			s.logEvent(trace.EvPartialSwitch, t.id)
			if !t.Pending() {
				s.ready.Push(t)
				continue
			}
		}
		t.Pending = nil
		s.switchIn(t)
		return t
	}
	s.over = true
	return nil
}

// Kill requests asynchronous termination of the whole scheduler: at the
// next scheduling point every thread (including any spawned afterwards) is
// canceled, and Run returns ErrKilled once they have unwound. This is how a
// simulated PE crash takes its process down: safe to call from any context
// — a simulator event, a transport goroutine — because it only latches a
// flag and interrupts the host; all cancellation runs inside the
// scheduler's own dispatch, in deterministic thread-creation order.
func (s *Sched) Kill() {
	s.killed.Store(true)
	s.host.Interrupt()
}

// Killed reports whether Kill has been requested.
func (s *Sched) Killed() bool { return s.killed.Load() }

// killSweep cancels every live thread, in creation order. Runs in dispatch,
// with the owner token held.
func (s *Sched) killSweep() {
	for _, t := range s.threads {
		if t.state != Done && !t.canceled {
			s.Cancel(t)
		}
	}
}

// pickReady removes and returns the first ready thread of the highest
// priority, or nil if the ready queue is empty. The indexed queue keeps
// within-priority FIFO order and honors priority changes made while queued
// (SetPriority relocates queued threads eagerly; see queue.go).
func (s *Sched) pickReady() *TCB {
	return s.ready.Pop()
}

// switchIn performs a complete context switch to t: the event the paper's
// CtxSw column counts. It is the model's switch — counted and charged even
// when t is the thread that is dispatching, in which case no coroutine
// switch follows.
func (s *Sched) switchIn(t *TCB) {
	s.ctrs.FullSwitches.Add(1)
	s.host.Charge(s.host.Model().FullSwitch)
	s.logEvent(trace.EvSwitchIn, t.id)
	if s.opts.Tracer != nil {
		t.runBegin = s.host.Now()
	}
	t.state = Running
	s.cur = t
}

// switchOut ends t's occupancy of the processor (it is parking, or has
// finished): from here until the next switchIn no thread is current.
func (s *Sched) switchOut(t *TCB) {
	if s.opts.Tracer != nil && !s.over {
		// One occupancy interval: the switch-in until the thread parked
		// (block, yield-with-switch) or finished. A thread unwinding under
		// the end-of-run reap was not switched in, so it closes none.
		s.opts.Tracer.Span(trace.SpanRun, s.opts.PE, t.id, t.runBegin, s.host.Now(), 0)
	}
	s.cur = nil
}

// resume switches from Run's goroutine into t's coroutine, giving it the
// processor and the owner token, and returns when t parks or finishes. The
// coroutine is created here, at the first resumption, so it always starts
// from Run's goroutine and inherits that goroutine's pprof labels.
func (s *Sched) resume(t *TCB) {
	if check.Enabled {
		s.handoffs++
		s.owner.Release()
	}
	if t.in == nil {
		t.in, _ = iter.Pull(func(out func(struct{}) bool) {
			t.out = out
			s.trampoline(t)
		})
	}
	t.in()
	if check.Enabled {
		s.owner.Acquire("sched " + s.opts.Name)
	}
}

// trampoline is the coroutine body wrapping a thread function: it converts
// exit and cancel unwinds into completion, captures stray panics, and
// leaves the thread to run next for Run's loop when the thread is done.
func (s *Sched) trampoline(t *TCB) {
	if check.Enabled {
		s.owner.Acquire("thread " + t.name)
	}
	s.runBody(t)
	s.finish(t)
	s.switchOut(t)
	s.pending = s.dispatch(t.name)
	if check.Enabled {
		s.owner.Release()
	}
}

// runBody runs t's function to completion, absorbing the exit and cancel
// unwinds and recording any other panic for Run to re-raise.
func (s *Sched) runBody(t *TCB) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case exitSignal:
			t.result = v.value
		case cancelSignal:
		default:
			s.pan = &PanicError{Thread: t.name, Value: v}
		}
	}()
	if t.canceled {
		panic(cancelSignal{})
	}
	t.fn()
}

// finish marks t done, runs its thread-local destructors, updates live
// counts, and wakes its joiners.
func (s *Sched) finish(t *TCB) {
	t.state = Done
	t.Pending = nil
	t.runDestructors()
	s.logEvent(trace.EvExit, t.id)
	s.liveTotal--
	if !t.daemon {
		s.liveRegular--
	}
	for _, j := range t.joiners {
		s.Unblock(j)
	}
	t.joiners = nil
	s.finished++
	if s.finished >= 256 {
		s.pruneThreads()
	}
}

// pruneThreads drops Done entries from the bookkeeping slice so schedulers
// that spawn many short-lived threads do not grow without bound.
func (s *Sched) pruneThreads() {
	kept := s.threads[:0]
	for _, t := range s.threads {
		if t.state != Done {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(s.threads); i++ {
		s.threads[i] = nil
	}
	s.threads = kept
	s.finished = 0
}

// park gives up the processor and returns when this thread is switched in
// again. The parking thread runs the scheduler itself: if dispatch picks
// another thread, this one leaves it in pending and switches out to Run,
// which resumes it; if it picks this thread again (a lone blocked thread
// woken by the hook or the Pending check it has just run), park returns with
// no coroutine switch at all. Callers must check t.canceled afterwards.
func (s *Sched) park(t *TCB) {
	s.switchOut(t)
	next := s.dispatch(t.name)
	if next == t {
		return
	}
	s.pending = next
	if check.Enabled {
		s.owner.Release()
	}
	t.out(struct{}{})
	if check.Enabled {
		s.owner.Acquire("thread " + t.name)
	}
}

// Yield gives up the processor to the next ready thread
// (pthread_chanter_yield). If no other thread is ready and the caller has
// no pending request, it returns immediately without a context switch —
// the single-thread fast path the paper credits with halving Table 2's
// worst-case overhead.
func (s *Sched) Yield() {
	t := s.mustCurrent("Yield")
	s.ctrs.Yields.Add(1)
	if t.canceled {
		panic(cancelSignal{})
	}
	if s.killed.Load() {
		// A lone spinning thread takes the no-switch fast path below and
		// might never reach dispatch, so the kill must also be a
		// cancellation point here.
		t.canceled = true
		if t.onCancel != nil {
			fn := t.onCancel
			t.onCancel = nil
			fn()
		}
		panic(cancelSignal{})
	}
	if s.ready.Len() == 0 && t.Pending == nil && s.preSchedule != nil {
		// A no-switch yield is still a scheduling point: the polling hook
		// must run or a lone spinning thread would starve every blocked
		// receiver. The hook may ready a thread, in which case the fast
		// path below no longer applies.
		s.preSchedule()
	}
	if s.ready.Len() == 0 && t.Pending == nil {
		s.ctrs.YieldsNoSwitch.Add(1)
		s.host.Charge(s.host.Model().YieldNoSwitch)
		s.logEvent(trace.EvYieldFast, t.id)
		// A lone thread spinning on Yield has nobody to switch to here, but
		// another PE sharing the core may be what it is waiting for.
		s.host.Relax()
		return
	}
	t.state = Ready
	s.ready.Push(t)
	s.park(t)
	if t.canceled {
		panic(cancelSignal{})
	}
}

// Block removes the current thread from the run queue until some other
// agent calls Unblock on it. It is the primitive beneath mutexes, condition
// variables, join, and the scheduler-polling receive algorithms.
func (s *Sched) Block() {
	t := s.mustCurrent("Block")
	if t.canceled {
		panic(cancelSignal{})
	}
	t.state = Blocked
	s.blocked++
	s.logEvent(trace.EvBlock, t.id)
	if s.opts.Tracer != nil {
		t.blockedAt = s.host.Now()
	}
	s.park(t)
	if t.canceled {
		panic(cancelSignal{})
	}
}

// Unblock returns a blocked thread to the ready queue. It must be called
// from this scheduler's context (a running thread, a scheduling hook, or a
// cancel path).
func (s *Sched) Unblock(t *TCB) {
	if check.Enabled {
		s.owner.Assert("Sched.Unblock")
	}
	if t.state != Blocked {
		panic(fmt.Sprintf("ult: Unblock of %q in state %s", t.name, t.state))
	}
	t.state = Ready
	s.blocked--
	s.ready.Push(t)
	s.logEvent(trace.EvUnblock, t.id)
	if s.opts.Tracer != nil {
		s.opts.Tracer.Span(trace.SpanBlocked, s.opts.PE, t.id, t.blockedAt, s.host.Now(), 0)
	}
}

// Exit terminates the calling thread, making value available to joiners
// (pthread_chanter_exit).
func (s *Sched) Exit(value any) {
	s.mustCurrent("Exit")
	panic(exitSignal{value: value})
}

// Cancel requests that t exit as if it had called Exit
// (pthread_chanter_cancel). A blocked target is released to reach its next
// cancellation point; cleanup registered via OnCancel runs immediately.
// Canceling the calling thread exits at once; canceling a finished thread
// is a no-op.
func (s *Sched) Cancel(t *TCB) {
	if check.Enabled {
		s.owner.Assert("Sched.Cancel")
	}
	if t.state == Done || t.canceled {
		return
	}
	t.canceled = true
	s.logEvent(trace.EvCancel, t.id)
	if t.onCancel != nil {
		fn := t.onCancel
		t.onCancel = nil
		fn()
	}
	if t == s.cur {
		panic(cancelSignal{})
	}
	if t.state == Blocked {
		s.Unblock(t)
	}
}

// Join blocks the caller until t finishes and returns t's exit value
// (pthread_chanter_join). Joining a detached thread or self is an error;
// joining a canceled thread reports ErrCanceled.
func (s *Sched) Join(t *TCB) (any, error) {
	cur := s.mustCurrent("Join")
	if t == cur {
		return nil, ErrSelfJoin
	}
	if t.detached {
		return nil, ErrDetached
	}
	for t.state != Done {
		t.joiners = append(t.joiners, cur)
		cur.onCancel = func() { removeTCB(&t.joiners, cur) }
		s.Block()
		cur.onCancel = nil
	}
	if t.canceled {
		return nil, ErrCanceled
	}
	return t.result, nil
}

// reapRemaining cancels and unwinds every thread still alive, so daemons
// (like the Chant server thread) and deadlocked threads do not outlive their
// scheduler as suspended coroutines. Each unwind may finish threads and
// prune the bookkeeping slice, so the scan restarts after every reap.
func (s *Sched) reapRemaining() {
	for {
		var t *TCB
		for _, x := range s.threads {
			if x.state != Done {
				t = x
				break
			}
		}
		if t == nil {
			return
		}
		t.canceled = true
		if t.onCancel != nil {
			fn := t.onCancel
			t.onCancel = nil
			fn()
		}
		if t.in == nil {
			s.finish(t)
			continue
		}
		// The run is over, so dispatch picks nobody: the thread's next park
		// or its exit comes straight back here.
		t.state = Running
		s.cur = t
		s.resume(t)
	}
}

// deadlockError builds a diagnostic listing every live thread's state.
func (s *Sched) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduler %q:", s.opts.Name)
	for _, t := range s.threads {
		if t.state != Done {
			fmt.Fprintf(&b, " [%d %s: %s]", t.id, t.name, t.state)
		}
	}
	return fmt.Errorf("%w (%s)", ErrDeadlock, b.String())
}

func (s *Sched) mustCurrent(op string) *TCB {
	if check.Enabled {
		s.owner.Assert("Sched." + op)
	}
	if s.cur == nil {
		panic("ult: " + op + " called outside any thread")
	}
	return s.cur
}

// audit cross-checks the scheduler's cached accounting — the blocked count,
// the ready queue, the live totals — against the ground truth of thread
// states. dispatch calls it at every scheduling iteration in chantdebug builds;
// a mismatch means some transition skipped its bookkeeping, so it panics
// with a full thread dump rather than let the run limp on.
func (s *Sched) audit() {
	var ready, blocked, regular, total int
	for _, t := range s.threads {
		switch t.state {
		case Ready:
			ready++
		case Blocked:
			blocked++
		case Running:
			check.Failf("sched %q: thread %d %q is Running at a scheduling point\n%s", s.opts.Name, t.id, t.name, s.dumpThreads())
		}
		if t.state != Done {
			total++
			if !t.daemon {
				regular++
			}
		}
	}
	if blocked != s.blocked {
		check.Failf("sched %q: blocked count is %d but %d threads are Blocked\n%s", s.opts.Name, s.blocked, blocked, s.dumpThreads())
	}
	if ready != s.ready.Len() {
		check.Failf("sched %q: ready queue holds %d entries but %d threads are Ready\n%s", s.opts.Name, s.ready.Len(), ready, s.dumpThreads())
	}
	if regular != s.liveRegular || total != s.liveTotal {
		check.Failf("sched %q: live counts (regular=%d total=%d) disagree with thread states (regular=%d total=%d)\n%s",
			s.opts.Name, s.liveRegular, s.liveTotal, regular, total, s.dumpThreads())
	}
	s.ready.Do(func(t *TCB) {
		if t.state != Ready {
			check.Failf("sched %q: ready queue contains thread %d %q in state %s\n%s", s.opts.Name, t.id, t.name, t.state, s.dumpThreads())
		}
		if !t.inReady || t.readyPrio != t.prio {
			check.Failf("sched %q: ready queue bookkeeping stale for thread %d %q (inReady=%v readyPrio=%d prio=%d)\n%s",
				s.opts.Name, t.id, t.name, t.inReady, t.readyPrio, t.prio, s.dumpThreads())
		}
	})
}

// dumpThreads renders every tracked thread for invariant-failure
// diagnostics.
func (s *Sched) dumpThreads() string {
	var b strings.Builder
	for _, t := range s.threads {
		mark := ""
		if t.daemon {
			mark = " daemon"
		}
		fmt.Fprintf(&b, "  [%d %s: %s%s]\n", t.id, t.name, t.state, mark)
	}
	return b.String()
}

// removeTCB deletes the first occurrence of t from *list, niling the vacated
// tail slot so the backing array does not pin the removed TCB alive.
func removeTCB(list *[]*TCB, t *TCB) {
	s := *list
	for i, x := range s {
		if x == t {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			*list = s[:len(s)-1]
			return
		}
	}
}
