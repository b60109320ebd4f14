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
	Kind() PolicyKind
	Wait(h *comm.RecvHandle, boostTo int)
	// external reports whether the policy holds outstanding requests that
	// an arriving message could complete (used for idle/deadlock decisions).
	external() bool
}

func newPolicy(kind PolicyKind, sched *ult.Sched, ep *comm.Endpoint) policy {
	switch kind {
	case ThreadPolls:
		return &tpPolicy{sched: sched, ep: ep}
	case SchedulerPollsPS:
		return &psPolicy{sched: sched, ep: ep}
	case SchedulerPollsWQ, SchedulerPollsWQAny:
		p := &wqPolicy{
			sched:      sched,
			ep:         ep,
			useTestAny: kind == SchedulerPollsWQAny,
			det:        ep.Host().Deterministic(),
			index:      make(map[*comm.RecvHandle]*wqEntry),
		}
		// The completion ready-list replaces scanning in every mode except
		// WQ-under-simulation, where the exact per-entry msgtest sequence
		// (each a yield point) must be preserved for bit-identical runs.
		p.tracking = p.useTestAny || !p.det
		if p.tracking {
			ep.TrackCompletions()
		}
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

func (p *tpPolicy) Kind() PolicyKind { return ThreadPolls }

func (p *tpPolicy) external() bool { return false }

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

func (p *psPolicy) Kind() PolicyKind { return SchedulerPollsPS }

func (p *psPolicy) external() bool { return false }

func (p *psPolicy) Wait(h *comm.RecvHandle, boostTo int) {
	if h.Done() {
		// Already arrived when the receive was posted: no polling needed
		// and no msgtest consumed (the completion is visible in the TCB).
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
// O(1), stamped with a registration sequence number (the paper's algorithm
// scans — and therefore completes — in registration order).
type wqEntry struct {
	h       *comm.RecvHandle
	t       *ult.TCB
	boostTo int
	seq     uint64
	done    bool // drained from the ready-list, awaiting completion (WQAny)
	prev    *wqEntry
	next    *wqEntry
}

// wqPolicy is Scheduler polls (WQ): waiting threads block on a queue of
// polling requests that the scheduler examines at every scheduling point —
// testing each request in turn (NX style), or with one msgtestany call
// (MPI style) when useTestAny is set.
//
// The seed re-tested every outstanding request at every scheduling point,
// O(waiters) per point even when nothing had arrived. This version learns
// completions from the endpoint's ready-list (DrainCompletions), so a
// scheduling point inspects only handles that actually completed. The cost
// model is unaffected: simulated msgtest/msgtestany *charges* are issued
// exactly as the algorithm prescribes — per entry under WQ, one call per
// point under WQAny — so the paper's Tables 3–5 counts are unchanged. The
// one mode that still tests each handle for real is WQ under simulation,
// where each charge is a yield point and the delivery interleaving it
// induces is part of the bit-identical determinism witness.
type wqPolicy struct {
	sched      *ult.Sched
	ep         *comm.Endpoint
	useTestAny bool
	det        bool // deterministic host: preserve exact charge interleaving
	tracking   bool // ready-list draining enabled

	head, tail *wqEntry
	index      map[*comm.RecvHandle]*wqEntry
	count      int
	seq        uint64

	// doneList holds drained-but-not-yet-completed entries: WQAny completes
	// one request per scheduling point (as msgtestany reports one), so the
	// rest must stay discoverable across calls.
	doneList []*wqEntry
	drain    []*comm.RecvHandle // reusable DrainCompletions buffer
	free     *wqEntry           // entry freelist
}

func (p *wqPolicy) Kind() PolicyKind {
	if p.useTestAny {
		return SchedulerPollsWQAny
	}
	return SchedulerPollsWQ
}

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
	p.index[h] = e
	w := wqBox(p, t)
	w.h = h
	beginWait(p.ep)
	defer endWait(p.ep, h)
	t.SetOnCancel(w.cancel)
	p.sched.Block()
	t.SetOnCancel(nil)
	w.h = nil
}

// wqWait is the thread's reusable Scheduler-polls (WQ) wait state: the
// cancel hook is materialized once per thread (see ult.TCB.WaitBox) instead
// of a fresh closure per blocking receive.
type wqWait struct {
	p      *wqPolicy
	t      *ult.TCB
	h      *comm.RecvHandle
	cancel func()
}

func wqBox(p *wqPolicy, t *ult.TCB) *wqWait {
	if w, ok := t.WaitBox.(*wqWait); ok && w.p == p {
		return w
	}
	w := &wqWait{p: p, t: t}
	w.cancel = func() {
		w.p.removeEntry(w.h, w.t)
		w.p.ep.CancelRecv(w.h)
	}
	t.WaitBox = w
	return w
}

// preSchedule is the scheduling-point walk installed on the scheduler.
func (p *wqPolicy) preSchedule() {
	if p.count == 0 {
		if p.tracking {
			// Nothing registered, but completions from unregistered receives
			// (first-test hits, probes, timeouts) still queue on the
			// ready-list: drain and discard to keep it bounded.
			p.drainDone()
		}
		return
	}
	switch {
	case p.useTestAny:
		p.scanAny()
	case p.det:
		p.scanExact()
	default:
		p.scanBatch()
	}
}

// scanExact is WQ under simulation: test every outstanding request in turn,
// as the paper describes for systems without msgtestany ("all outstanding
// messages are checked at each context switch"). Each Test charges — and
// under simulation, yields — individually; a delivery landing during one
// charge is visible to the tests that follow, which is why this sequence
// cannot be batched without changing the witness.
func (p *wqPolicy) scanExact() {
	for e := p.head; e != nil; {
		next := e.next
		if p.ep.Test(e.h) {
			p.completeEntry(e)
		}
		e = next
	}
}

// scanBatch is WQ on a real host: learn completions from the drained
// ready-list, then count what the per-entry test loop would have — n msgtest
// calls, misses for the still-pending ones — in one step. Nothing here
// offers the processor to other PEs and nothing needs to: with every thread
// blocked the scheduler goes on to host.Idle, and a running thread reaches a
// send, a missed poll or a no-switch yield of its own.
func (p *wqPolicy) scanBatch() {
	p.drainDone()
	n := p.count
	hits := len(p.doneList)
	p.ep.ChargeTestBatch(hits, n-hits)
	for i, e := range p.doneList {
		p.ep.Observe(e.h)
		p.completeEntry(e)
		p.doneList[i] = nil
	}
	p.doneList = p.doneList[:0]
}

// scanAny is WQAny in both modes: one msgtestany charge over the current
// list, then complete the registration-order-first completed request, as
// MPI_TESTANY would have reported. The charge is issued before the drain:
// under simulation the charge advances virtual time, and a delivery landing
// during it was visible to the old post-charge scan — by drain time it is
// on the ready-list, so the drain sees exactly the same done-set.
func (p *wqPolicy) scanAny() {
	p.ep.ChargeTestAny(p.count)
	p.drainDone()
	if len(p.doneList) == 0 {
		return
	}
	bi := 0
	for i, e := range p.doneList[1:] {
		if e.seq < p.doneList[bi].seq {
			bi = i + 1
		}
	}
	e := p.doneList[bi]
	last := len(p.doneList) - 1
	p.doneList[bi] = p.doneList[last]
	p.doneList[last] = nil
	p.doneList = p.doneList[:last]
	p.ep.Observe(e.h)
	p.completeEntry(e)
}

// drainDone pulls completion notifications from the endpoint and marks the
// corresponding registered entries done. Handles not in the index belong to
// receives that completed outside the polling list and are ignored.
func (p *wqPolicy) drainDone() {
	p.drain = p.ep.DrainCompletions(p.drain[:0])
	for i, h := range p.drain {
		if e := p.index[h]; e != nil && !e.done {
			e.done = true
			p.doneList = append(p.doneList, e)
		}
		p.drain[i] = nil
	}
}

// completeEntry unlinks e and readies its thread, applying any boost. The
// caller is responsible for e's doneList slot, if any.
func (p *wqPolicy) completeEntry(e *wqEntry) {
	t, boostTo := e.t, e.boostTo
	p.unlink(e)
	p.freeEntry(e)
	if boostTo != noBoost {
		t.SetPriority(boostTo)
	}
	p.sched.Unblock(t)
}

// removeEntry drops the entry registered for h by t, if still present
// (cancellation path).
func (p *wqPolicy) removeEntry(h *comm.RecvHandle, t *ult.TCB) {
	e := p.index[h]
	if e == nil || e.t != t {
		return
	}
	if e.done {
		for i, d := range p.doneList {
			if d == e {
				last := len(p.doneList) - 1
				p.doneList[i] = p.doneList[last]
				p.doneList[last] = nil
				p.doneList = p.doneList[:last]
				break
			}
		}
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
	delete(p.index, e.h)
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
	p.seq++
	e.h, e.t, e.boostTo, e.seq, e.done = h, t, boostTo, p.seq, false
	return e
}

func (p *wqPolicy) freeEntry(e *wqEntry) {
	*e = wqEntry{}
	e.next = p.free
	p.free = e
}
