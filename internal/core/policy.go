package core

import (
	"math"

	"chant/internal/comm"
	"chant/internal/ult"
)

// PolicyKind names one of the message-polling scheduling algorithms the
// paper measures in Section 4.2.
type PolicyKind int

const (
	// ThreadPolls: the waiting thread stays on the ready queue and tests
	// its own request each time it is rescheduled (Figure 5). Works with
	// any thread package.
	ThreadPolls PolicyKind = iota
	// SchedulerPollsPS: the request lives in the waiting thread's TCB; the
	// scheduler tests it during a partial context switch and only restores
	// the thread when the message has arrived. Fastest, but requires a
	// modifiable scheduler.
	SchedulerPollsPS
	// SchedulerPollsWQ: waiting threads move to a blocked queue and the
	// scheduler walks the whole outstanding-request list, testing each
	// request in turn, at every scheduling point (Figure 6).
	SchedulerPollsWQ
	// SchedulerPollsWQAny: the WQ algorithm "as originally intended" — a
	// single msgtestany call per scheduling point instead of one test per
	// request. This is the paper's Section 4.2 hypothesis about running WQ
	// over MPI's MPI_TESTANY.
	SchedulerPollsWQAny
)

func (k PolicyKind) String() string {
	switch k {
	case ThreadPolls:
		return "thread-polls"
	case SchedulerPollsPS:
		return "scheduler-polls-ps"
	case SchedulerPollsWQ:
		return "scheduler-polls-wq"
	case SchedulerPollsWQAny:
		return "scheduler-polls-wq-any"
	}
	return "invalid"
}

// noBoost disables the priority boost on wait completion.
const noBoost = math.MinInt

// policy is the strategy object behind every blocking receive: Wait parks
// the calling thread until h completes, under the policy's polling rules.
// boostTo, unless noBoost, is a priority assigned to the thread the moment
// its message is noticed — the paper's server-thread boost ("assumes a
// higher scheduling priority ... ensuring that it is scheduled at the next
// context switch point").
type policy interface {
	Wait(h *comm.RecvHandle, boostTo int)
}

func newPolicy(kind PolicyKind, sched *ult.Sched, ep *comm.Endpoint) policy {
	switch kind {
	case ThreadPolls:
		return &tpPolicy{sched: sched, ep: ep}
	case SchedulerPollsPS:
		return &psPolicy{sched: sched, ep: ep}
	case SchedulerPollsWQ, SchedulerPollsWQAny:
		p := &wqPolicy{sched: sched, ep: ep, useTestAny: kind == SchedulerPollsWQAny}
		sched.SetPreSchedule(p.preSchedule)
		sched.SetExternalWaiters(p.external)
		return p
	}
	panic("core: unknown polling policy")
}

// beginWait/endWait bracket a wait with the Figure-13 waiting-thread
// integrator, robustly against cancellation unwinds when used as
// `beginWait(ep)` and `defer endWait(ep, h)` (a plain call pair: no closure
// allocation per blocking receive). The wait ends when the request stops
// being outstanding — the message's arrival time — not when the thread
// resumes, matching the paper's "threads waiting on outstanding receive
// requests". A done handle's completion stamp is never later than now, so
// only a wait unwound by cancellation reads the clock to end.
func beginWait(ep *comm.Endpoint) {
	ep.Counters().WaitBegin(ep.Host().Now())
}

func endWait(ep *comm.Endpoint, h *comm.RecvHandle) {
	if h.Done() {
		ep.Counters().WaitEndAt(h.CompletedAt())
		return
	}
	ep.Counters().WaitEndAt(ep.Host().Now())
}

// tpPolicy is Thread polls (Figure 5): test, and while incomplete, yield
// and test again on every reschedule.
type tpPolicy struct {
	sched *ult.Sched
	ep    *comm.Endpoint
}

func (p *tpPolicy) Wait(h *comm.RecvHandle, boostTo int) {
	if p.ep.Test(h) {
		return
	}
	t := p.sched.Current()
	w := tpBox(p, t)
	w.h = h
	beginWait(p.ep)
	defer endWait(p.ep, h)
	t.SetOnCancel(w.cancel)
	for {
		p.sched.Yield()
		if p.ep.Test(h) {
			break
		}
	}
	t.SetOnCancel(nil)
	w.h = nil
	// The thread is already running when it notices completion, so the
	// boost is moot under Thread polls.
}

// tpWait is the thread's reusable Thread-polls wait state: the cancel hook
// is materialized once per thread (see ult.TCB.WaitBox) instead of a fresh
// closure per blocking receive.
type tpWait struct {
	p      *tpPolicy
	h      *comm.RecvHandle
	cancel func()
}

func tpBox(p *tpPolicy, t *ult.TCB) *tpWait {
	if w, ok := t.WaitBox.(*tpWait); ok && w.p == p {
		return w
	}
	w := &tpWait{p: p}
	w.cancel = func() { w.p.ep.CancelRecv(w.h) }
	t.WaitBox = w
	return w
}

// psPolicy is Scheduler polls (PS): the pending request is stored in the
// TCB and the scheduler tests it during a partial switch, restoring the
// thread's context only when its message has arrived.
type psPolicy struct {
	sched *ult.Sched
	ep    *comm.Endpoint
}

func (p *psPolicy) Wait(h *comm.RecvHandle, boostTo int) {
	if !h.Done() {
		// Offer the processor once before parking: the peer this thread
		// just sent to may answer within the hand-off, and then the thread
		// runs on without a switch. Thread polls and WQ relax here too,
		// through the missed Test their Waits open with.
		p.ep.Host().Relax()
	}
	if h.Done() {
		// Arrived by the time the receive was posted, or within the
		// hand-off: no polling needed and no msgtest consumed (the
		// completion is visible in the TCB).
		p.ep.Wait(h)
		return
	}
	t := p.sched.Current()
	w := psBox(p, t)
	w.h, w.boostTo = h, boostTo
	beginWait(p.ep)
	defer endWait(p.ep, h)
	t.SetOnCancel(w.cancel)
	t.Pending = w.pending
	p.sched.Yield()
	t.SetOnCancel(nil)
	w.h = nil
}

// psWait is the thread's reusable Scheduler-polls (PS) wait state: the
// pending check the scheduler runs at partial switches and the cancel hook
// are materialized once per thread (see ult.TCB.WaitBox) instead of fresh
// closures per blocking receive.
type psWait struct {
	p       *psPolicy
	t       *ult.TCB
	h       *comm.RecvHandle
	boostTo int
	pending func() bool
	cancel  func()
}

func psBox(p *psPolicy, t *ult.TCB) *psWait {
	if w, ok := t.WaitBox.(*psWait); ok && w.p == p {
		return w
	}
	w := &psWait{p: p, t: t}
	// pending turns true only when w.h completes, and every completion
	// that can land while the thread waits interrupts the host after it:
	// an arrival (Endpoint.arrive) and a failed peer (MarkPeerDead). A
	// receive complete at post time never gets here (Wait checks first).
	// That is the contract ult.TCB.Pending states.
	w.pending = func() bool {
		if !w.p.ep.Test(w.h) {
			return false
		}
		if w.boostTo != noBoost {
			w.t.SetPriority(w.boostTo)
		}
		return true
	}
	w.cancel = func() { w.p.ep.CancelRecv(w.h) }
	t.WaitBox = w
	return w
}

// wqEntry is one outstanding request on the Scheduler-polls (WQ) list: an
// intrusive doubly-linked node so completion and cancellation unlink in
// O(1). The list is in registration order, the order in which the paper's
// algorithm tests — and therefore completes — requests.
type wqEntry struct {
	h       *comm.RecvHandle
	t       *ult.TCB
	boostTo int
	prev    *wqEntry
	next    *wqEntry
}

// wqPolicy is Scheduler polls (WQ): waiting threads block on a queue of
// polling requests that the scheduler examines at every scheduling point —
// testing each request in turn (NX style), or with one msgtestany call
// (MPI style) when useTestAny is set. Both hosts run the same walk.
type wqPolicy struct {
	sched      *ult.Sched
	ep         *comm.Endpoint
	useTestAny bool

	head, tail *wqEntry
	count      int
	free       *wqEntry // entry freelist
}

// external reports whether the policy holds outstanding requests that an
// arriving message could complete (used for idle/deadlock decisions).
func (p *wqPolicy) external() bool { return p.count > 0 }

func (p *wqPolicy) Wait(h *comm.RecvHandle, boostTo int) {
	if p.ep.Test(h) {
		return
	}
	host := p.ep.Host()
	host.Charge(host.Model().RegisterPoll)
	t := p.sched.Current()
	e := p.newEntry(h, t, boostTo)
	p.pushBack(e)
	w := wqBox(p, t)
	w.h, w.e = h, e
	beginWait(p.ep)
	defer endWait(p.ep, h)
	t.SetOnCancel(w.cancel)
	p.sched.Block()
	t.SetOnCancel(nil)
	w.h, w.e = nil, nil
}

// wqWait is the thread's reusable Scheduler-polls (WQ) wait state: the
// cancel hook is materialized once per thread (see ult.TCB.WaitBox) instead
// of a fresh closure per blocking receive.
type wqWait struct {
	p      *wqPolicy
	t      *ult.TCB
	h      *comm.RecvHandle
	e      *wqEntry
	cancel func()
}

func wqBox(p *wqPolicy, t *ult.TCB) *wqWait {
	if w, ok := t.WaitBox.(*wqWait); ok && w.p == p {
		return w
	}
	w := &wqWait{p: p, t: t}
	w.cancel = func() {
		w.p.removeEntry(w.e, w.t)
		w.p.ep.CancelRecv(w.h)
	}
	t.WaitBox = w
	return w
}

// preSchedule is the scheduling-point walk installed on the scheduler.
func (p *wqPolicy) preSchedule() {
	if p.count == 0 {
		return
	}
	if p.useTestAny {
		p.scanAny()
	} else {
		p.scanExact()
	}
}

// scanExact is WQ: test every outstanding request in turn, as the paper
// describes for systems without msgtestany ("all outstanding messages are
// checked at each context switch"). Each Poll charges — and under
// simulation, yields — individually; a delivery landing during one charge
// is visible to the tests that follow. Poll, not Test: a relax per miss
// would offer the processor once per blocked thread.
func (p *wqPolicy) scanExact() {
	for e := p.head; e != nil; {
		next := e.next
		if p.ep.Poll(e.h) {
			p.completeEntry(e)
		}
		e = next
	}
}

// scanAny is WQAny: one msgtestany charge over the current list, then
// complete the registration-order-first done request, as MPI_TESTANY would
// have reported. The charge comes first: under simulation it advances
// virtual time, and a delivery landing during it is visible to the walk.
func (p *wqPolicy) scanAny() {
	p.ep.ChargeTestAny(p.count)
	for e := p.head; e != nil; e = e.next {
		if e.h.Done() {
			p.ep.Observe(e.h)
			p.completeEntry(e)
			return
		}
	}
}

// completeEntry unlinks e and readies its thread, applying any boost.
func (p *wqPolicy) completeEntry(e *wqEntry) {
	t, boostTo := e.t, e.boostTo
	p.unlink(e)
	p.freeEntry(e)
	if boostTo != noBoost {
		t.SetPriority(boostTo)
	}
	p.sched.Unblock(t)
}

// removeEntry drops e if t still owns it (cancellation path). A thread
// canceled while Ready has had its entry completed: e is then freed, or
// already registered again by another thread's wait.
func (p *wqPolicy) removeEntry(e *wqEntry, t *ult.TCB) {
	if e.t != t {
		return
	}
	p.unlink(e)
	p.freeEntry(e)
}

func (p *wqPolicy) pushBack(e *wqEntry) {
	e.prev = p.tail
	if p.tail != nil {
		p.tail.next = e
	} else {
		p.head = e
	}
	p.tail = e
	p.count++
}

func (p *wqPolicy) unlink(e *wqEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		p.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		p.tail = e.prev
	}
	e.prev, e.next = nil, nil
	p.count--
}

func (p *wqPolicy) newEntry(h *comm.RecvHandle, t *ult.TCB, boostTo int) *wqEntry {
	e := p.free
	if e != nil {
		p.free = e.next
		e.next = nil
	} else {
		e = &wqEntry{}
	}
	e.h, e.t, e.boostTo = h, t, boostTo
	return e
}

func (p *wqPolicy) freeEntry(e *wqEntry) {
	*e = wqEntry{}
	e.next = p.free
	p.free = e
}
