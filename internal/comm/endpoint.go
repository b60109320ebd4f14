package comm

import (
	"sync"
	"sync/atomic"

	"chant/internal/check"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

// Endpoint is one process's attachment to the communication system. All
// operations charge their modeled costs against the process's Host and
// record events in its Counters, so higher layers (and the experiment
// harness) see NX-like cost behaviour regardless of transport.
//
// Methods other than DeliverLocal and DeliverFrom must be called from the
// endpoint's own process context (its scheduler or one of its threads).
// Those two are the transport-side entry points and are safe to call from
// any context.
type Endpoint struct {
	addr Addr
	host machine.Host
	ctrs *trace.Counters
	tr   Transport
	mb   mailbox

	// tracer, when non-nil, receives endpoint spans (sends, direct
	// deliveries, match-to-observe latency). Each emission site gates on the
	// nil check before reading any clock, so an untraced endpoint pays one
	// compare per operation.
	tracer *trace.Tracer

	// dtr is tr's borrowed-buffer extension when it offers one, cached so the
	// send hot path pays one nil check instead of a type assertion per
	// message. simnet is not a DirectTransport, so it is nil under
	// simulation.
	dtr DirectTransport

	// Delivery instrumentation for IngressStats, deliberately kept out of
	// trace.Counters so no simulated snapshot or chaos hash can see it.
	delivered       atomic.Uint64
	directDelivered atomic.Uint64

	// dead is the set of peers declared failed (by a transport's failure
	// detector or a simulated crash event). Guarded by deadMu because
	// detectors may run on transport-side contexts. nDead is its size, kept
	// under deadMu and read without it: PeerDead, which every pinned Irecv
	// asks, takes the lock only while some peer is dead.
	deadMu sync.Mutex
	dead   map[Addr]bool
	nDead  atomic.Int32

	// freeHandles recycles receive handles whose owners provably drop them
	// (the internal blocking-receive paths). Touched only from the
	// endpoint's own process context, so no lock is needed — and LIFO reuse
	// order is deterministic, unlike a sync.Pool.
	freeHandles []*RecvHandle
}

// NewEndpoint creates an endpoint for process addr, charging host and
// counting into ctrs, sending through tr.
func NewEndpoint(addr Addr, host machine.Host, ctrs *trace.Counters, tr Transport) *Endpoint {
	e := &Endpoint{addr: addr, host: host, ctrs: ctrs, tr: tr}
	e.mb.clock = host
	e.dtr, _ = tr.(DirectTransport)
	return e
}

// Addr reports the process address of this endpoint.
func (e *Endpoint) Addr() Addr { return e.addr }

// Host reports the execution host this endpoint charges.
func (e *Endpoint) Host() machine.Host { return e.host }

// Counters reports the endpoint's event counters.
func (e *Endpoint) Counters() *trace.Counters { return e.ctrs }

// SetTracer attaches (or, with nil, detaches) a span tracer. Call before
// traffic flows; the endpoint does not synchronize the swap.
func (e *Endpoint) SetTracer(tr *trace.Tracer) { e.tracer = tr }

// SetUnexpectedCap bounds the unexpected-message queue to cap entries; zero
// (the default) leaves it unbounded. Arrivals matching no posted receive
// while the queue is full are dropped and counted in
// Counters.UnexpectedDropped — under fault injection and retry layers a
// bounded queue turns buffer exhaustion into an ordinary countable drop.
func (e *Endpoint) SetUnexpectedCap(cap int) {
	e.mb.mu.Lock()
	defer e.mb.mu.Unlock()
	e.mb.unexpectedCap = cap
}

// MarkPeerDead declares peer failed: every posted receive pinned to it
// completes immediately with ErrPeerDead, and future pinned receives are
// born failed. Safe to call from any context (failure detectors run on
// transport goroutines or simulator events). Idempotent.
func (e *Endpoint) MarkPeerDead(peer Addr) {
	e.deadMu.Lock()
	if e.dead[peer] {
		e.deadMu.Unlock()
		return
	}
	if e.dead == nil {
		e.dead = make(map[Addr]bool)
	}
	e.dead[peer] = true
	e.nDead.Add(1)
	e.deadMu.Unlock()
	e.ctrs.PeersDead.Add(1)
	if failed := e.mb.failPeer(peer); failed > 0 {
		e.ctrs.PeerDeadRecvs.Add(uint64(failed))
	}
	e.host.Interrupt()
}

// MarkPeerAlive clears a peer's dead mark after its recovery (the rejoin
// handshake, or a transport detecting the peer's new incarnation), so
// pinned receives and retries reach it again. It reports whether the peer
// had been marked dead; recoveries are counted in Counters.PeersRecovered.
// Safe to call from any context. Idempotent.
func (e *Endpoint) MarkPeerAlive(peer Addr) bool {
	e.deadMu.Lock()
	was := e.dead[peer]
	if was {
		delete(e.dead, peer)
		e.nDead.Add(-1)
	}
	e.deadMu.Unlock()
	if was {
		e.ctrs.PeersRecovered.Add(1)
		e.host.Interrupt()
	}
	return was
}

// PeerDead reports whether peer has been declared dead.
func (e *Endpoint) PeerDead(peer Addr) bool {
	if e.nDead.Load() == 0 {
		return false
	}
	e.deadMu.Lock()
	defer e.deadMu.Unlock()
	return e.dead[peer]
}

// Send transmits data to process dst with the given destination context,
// tag, and sending-thread id. It is locally blocking (NX csend): the data
// is copied before return, so the caller may immediately reuse it.
func (e *Endpoint) Send(dst Addr, ctx, tag, srcThread int32, data []byte) {
	e.SendFlags(dst, ctx, tag, srcThread, 0, data)
}

// SendFlags is Send with delivery flags (FlagSync) in the header. It only
// injects the message and does not offer the processor: the hand-off comes
// where the sending thread next waits (a missed Test, or the Scheduler-polls
// (PS) wait), by which time it has posted its reply receive, so a reply
// lands in it with no extra copy (DESIGN.md "Processor sharing").
func (e *Endpoint) SendFlags(dst Addr, ctx, tag, srcThread, flags int32, data []byte) {
	var sendBegin sim.Time
	if e.tracer != nil {
		sendBegin = e.host.Now()
	}
	e.host.Charge(e.host.Model().SendOverhead)
	e.ctrs.Sends.Add(1)
	e.ctrs.BytesSent.Add(uint64(len(data)))
	hdr := Header{
		SrcPE:     e.addr.PE,
		SrcProc:   e.addr.Proc,
		SrcThread: srcThread,
		DstPE:     dst.PE,
		DstProc:   dst.Proc,
		Ctx:       ctx,
		Tag:       tag,
		Size:      int32(len(data)),
		Flags:     flags,
	}
	// A reachable DirectTransport destination takes the arrival from the
	// caller's buffer, copying it once: into a posted receive, or into a
	// pooled Message only if it must be queued.
	if e.dtr == nil || !e.dtr.DeliverFrom(hdr, data, e.host) {
		msg := GetPooledMessage(len(data))
		copy(msg.Data, data)
		msg.Hdr = hdr
		msg.SentAt = e.host.Now()
		e.tr.Deliver(msg)
	}
	if e.tracer != nil {
		e.tracer.Span(trace.SpanSend, e.addr.PE, srcThread, sendBegin, e.host.Now(), uint64(len(data)))
	}
}

// Irecv posts a nonblocking receive for a message matching spec, to be
// deposited into buf, and returns its completion handle. If a matching
// message already arrived, the handle is born complete; the copy out of the
// system buffer is charged (this is the extra copy a pre-posted receive
// avoids).
func (e *Endpoint) Irecv(spec MatchSpec, buf []byte) *RecvHandle {
	h := e.newHandle(spec, buf)
	if e.mb.post(h) {
		if e.tracer != nil {
			h.completedAt = e.host.Now() // SpanMatch's begin, its only reader
		}
		e.ctrs.RecvImmediate.Add(1)
		e.host.Charge(e.host.Model().CopyCost(h.n))
		return h
	}
	if spec.SrcPE != Any && spec.SrcProc != Any &&
		e.PeerDead(Addr{PE: spec.SrcPE, Proc: spec.SrcProc}) &&
		e.mb.removeFailed(h, ErrPeerDead, StatusPeerDead) {
		// The only process that could satisfy this receive is dead and no
		// matching message arrived before the failure: the handle is born
		// failed rather than left to hang.
		e.ctrs.PeerDeadRecvs.Add(1)
	}
	return h
}

// Test is msgtest: it checks a handle for completion, charging the modeled
// hit or miss cost and counting the attempt. The first Test observing
// completion also charges the receive-completion overhead and counts the
// receive. A miss relaxes the host, which is what keeps every loop built on
// Test (Thread polls, the PS partial switch, the deadline waits) from
// holding a core its peer needs.
func (e *Endpoint) Test(h *RecvHandle) bool {
	if e.Poll(h) {
		return true
	}
	e.host.Relax()
	return false
}

// Poll is Test without the relax on a miss: the one msgtest that does not
// offer the processor. Scheduler polls (WQ) tests every outstanding request
// at a scheduling point with it; a relax per miss would hand the core away
// once per blocked thread, and the walk needs none — with every thread
// blocked the scheduler goes on to the host's Pause, and a running thread
// reaches a send, a missed Test or a no-switch yield of its own.
func (e *Endpoint) Poll(h *RecvHandle) bool {
	e.ctrs.MsgTestCalls.Add(1)
	m := e.host.Model()
	if !h.done.Load() {
		e.ctrs.MsgTestFails.Add(1)
		e.host.Charge(m.MsgTestMiss)
		return false
	}
	e.host.Charge(m.MsgTestHit)
	e.observeCompletion(h)
	return true
}

// TestAny is msgtestany (MPI_TESTANY): one call that scans the outstanding
// handles and reports the index of a completed one, or -1. Its cost is a
// base charge plus a small per-request increment — far cheaper than testing
// each request individually, which is exactly the paper's Section 4.2
// hypothesis about the Scheduler-polls (WQ) algorithm under MPI.
func (e *Endpoint) TestAny(hs []*RecvHandle) int {
	e.ctrs.TestAnyCalls.Add(1)
	e.ctrs.TestAnyScanned.Add(uint64(len(hs)))
	m := e.host.Model()
	e.host.Charge(m.TestAnyBase + m.TestAnyPer.Scale(float64(len(hs))))
	for i, h := range hs {
		if h.done.Load() {
			e.observeCompletion(h)
			return i
		}
	}
	e.host.Relax()
	return -1
}

// Recv is the process-style blocking receive the paper's Table 2 baseline
// uses: it posts the receive and parks the processor in Host.Idle until the
// deposit's Interrupt, with no polling (the underlying system's blocking
// crecv). A real host parks at once, leaving its OS processor to the
// sender and to a transport's reader. It returns the payload length and
// the matched header.
func (e *Endpoint) Recv(spec MatchSpec, buf []byte) (int, Header, error) {
	h := e.Irecv(spec, buf)
	for !h.done.Load() {
		e.host.Idle()
	}
	e.observeCompletion(h)
	n, hdr, err := h.n, h.hdr, h.err
	// The handle never left this function: recycle it (Reset clears the
	// fields, hence the copies above).
	e.ReleaseHandle(h)
	return n, hdr, err
}

// Wait parks the processor in Host.Idle until the given handle completes,
// without polling; every completion (a deposit, a failed peer) interrupts
// the host. It is the blocking complement of Irecv (NX msgwait at process
// level).
func (e *Endpoint) Wait(h *RecvHandle) {
	for !h.done.Load() {
		e.host.Idle()
	}
	e.observeCompletion(h)
}

// Probe reports whether an unexpected message matching spec has arrived,
// without consuming it.
func (e *Endpoint) Probe(spec MatchSpec) (Header, bool) {
	hdr, ok := e.mb.findUnexpected(spec)
	m := e.host.Model()
	if ok {
		e.host.Charge(m.MsgTestHit)
	} else {
		e.host.Charge(m.MsgTestMiss)
		e.host.Relax()
	}
	return hdr, ok
}

// TimeoutRecv withdraws a posted receive and fails it with ErrTimeout,
// atomically with respect to delivery. It reports false — and leaves the
// handle untouched — if the receive already completed (or was canceled),
// so callers that lose the race still observe the real completion.
func (e *Endpoint) TimeoutRecv(h *RecvHandle) bool {
	if !e.mb.removeFailed(h, ErrTimeout, StatusTimedOut) {
		return false
	}
	e.ctrs.RecvTimeouts.Add(1)
	return true
}

// CancelRecv withdraws a posted receive that has not completed, reporting
// whether it was still pending. Used when a thread blocked in a receive is
// canceled.
func (e *Endpoint) CancelRecv(h *RecvHandle) bool {
	return e.mb.remove(h)
}

// QueueDepths reports the current posted-receive and unexpected-message
// queue lengths, for tests and diagnostics.
func (e *Endpoint) QueueDepths() (posted, unexpected int) {
	return e.mb.depths()
}

// UnexpectedSnapshot visits every unexpected message in arrival order
// without consuming any — checkpoint capture records the pending queue
// through this. The visitor must copy data it keeps (the buffers belong to
// the mailbox) and must not re-enter the endpoint.
func (e *Endpoint) UnexpectedSnapshot(visit func(hdr Header, data []byte, sentAt sim.Time)) {
	e.mb.snapshotUnexpected(visit)
}

// observeCompletion charges the one-time receive overhead and counts the
// receive, exactly once per handle.
func (e *Endpoint) observeCompletion(h *RecvHandle) {
	if h.observed {
		return
	}
	h.observed = true
	e.ctrs.Recvs.Add(1)
	e.host.Charge(e.host.Model().RecvOverhead)
	if e.tracer != nil {
		// Match-to-observe latency: the message completed the receive at
		// completedAt; only now did a thread look at the result.
		e.tracer.Span(trace.SpanMatch, e.addr.PE, trace.EndpointTID,
			h.completedAt, e.host.Now(), uint64(h.n))
	}
}

// Observe charges the one-time receive-completion overhead for a handle
// known to be done — the accounting a successful Test performs, exposed for
// Scheduler polls (WQAny), which finds a done request by walking its own
// list under one ChargeTestAny rather than by testing each.
func (e *Endpoint) Observe(h *RecvHandle) { e.observeCompletion(h) }

// ChargeTestAny performs the cost accounting of one TestAny call over n
// handles without scanning anything: the Scheduler-polls (WQAny) policy
// walks its own registration-ordered list for a done request but must
// charge — and count — exactly what the msgtestany it stands for would have.
func (e *Endpoint) ChargeTestAny(n int) {
	e.ctrs.TestAnyCalls.Add(1)
	e.ctrs.TestAnyScanned.Add(uint64(n))
	m := e.host.Model()
	e.host.Charge(m.TestAnyBase + m.TestAnyPer.Scale(float64(n)))
}

// newHandle draws a recycled receive handle, or allocates one.
func (e *Endpoint) newHandle(spec MatchSpec, buf []byte) *RecvHandle {
	if n := len(e.freeHandles); n > 0 {
		h := e.freeHandles[n-1]
		e.freeHandles[n-1] = nil
		e.freeHandles = e.freeHandles[:n-1]
		h.spec, h.buf = spec, buf
		return h
	}
	return &RecvHandle{spec: spec, buf: buf}
}

// ReleaseHandle returns a terminal (completed or canceled, no longer
// posted) handle for reuse by a later Irecv. Only callers that provably
// hold the last reference may release — the internal blocking-receive
// paths do; user-facing handles are never recycled.
func (e *Endpoint) ReleaseHandle(h *RecvHandle) {
	if check.Enabled {
		if h.entry != nil {
			check.Failf("comm: ReleaseHandle of a still-posted handle (spec %+v)", h.spec)
		}
		if !h.done.Load() && !h.canceled {
			check.Failf("comm: ReleaseHandle of a live handle (spec %+v)", h.spec)
		}
	}
	h.Reset()
	e.freeHandles = append(e.freeHandles, h)
}

// DeliverLocal is the transport-side delivery entry point for a message the
// transport owns: the mailbox releases msg once it is deposited or dropped,
// or keeps it on the unexpected queue. Safe to call from any context
// (another process's goroutine, a simulator event).
func (e *Endpoint) DeliverLocal(msg *Message) {
	e.arrive(msg.Hdr, msg.Data, msg, nil)
}

// DeliverFrom is the transport-side delivery entry point for a borrowed
// buffer: the sender's own data, or a TCP frame still in the read buffer.
// A matching posted receive gets the payload straight from data, with no
// pooled Message and no intermediate copy; an arrival that must queue is
// copied into a pooled Message stamped with from's clock (nil leaves
// SentAt zero). data is only read during the call. Safe to call from any
// context.
func (e *Endpoint) DeliverFrom(hdr Header, data []byte, from machine.Host) {
	e.arrive(hdr, data, nil, from)
}

// arrive runs the mailbox's one arrival body and does its accounting. Every
// host takes this path: the arrival is matched synchronously under the
// mailbox lock, an early arrival is counted when no receive was posted (or a
// drop when the unexpected queue is at its cap), and the host is
// interrupted. A stalled receiver's arrivals are therefore bounded the
// moment they arrive, and a message is in the mailbox before the
// transport's delivery call returns.
func (e *Endpoint) arrive(hdr Header, data []byte, msg *Message, from machine.Host) {
	h, dropped := e.mb.arrive(hdr, data, msg, from)
	if h != nil && msg == nil {
		e.directDelivered.Add(1)
		if e.tracer != nil {
			now := e.host.Now()
			e.tracer.Span(trace.SpanDirectDeliver, e.addr.PE, trace.EndpointTID, now, now, uint64(len(data)))
		}
	} else {
		e.delivered.Add(1)
	}
	if dropped {
		e.ctrs.UnexpectedDropped.Add(1)
		return
	}
	if h == nil {
		e.ctrs.EarlyArrivals.Add(1)
	}
	e.host.Interrupt()
}

// IngressStats reports how many arrivals were not deposited straight from
// a borrowed buffer, as batches and as messages, and how many were (the
// zero-copy direct path). Every arrival is handled on arrival, a batch of
// one, so batches always equals messages, and on memnet direct + messages
// counts every send. It is kept only because the benchmark (benchmark/)
// names it: its comm.ingress_avg_batch reads 1 and comm.direct_share stays
// meaningful.
func (e *Endpoint) IngressStats() (batches, messages, direct uint64) {
	n := e.delivered.Load()
	return n, n, e.directDelivered.Load()
}
