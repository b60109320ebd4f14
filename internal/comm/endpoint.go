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
// Methods other than DeliverLocal must be called from the endpoint's own
// process context (its scheduler or one of its threads). DeliverLocal is
// the transport-side entry point and is safe to call from any context.
type Endpoint struct {
	addr Addr
	host machine.Host
	ctrs *trace.Counters
	tr   Transport
	mb   mailbox

	// tracer, when non-nil, receives endpoint spans (sends, ingress
	// drains, direct deliveries, match-to-observe latency). Each emission
	// site gates on the nil check before reading any clock, so an untraced
	// endpoint pays one compare per operation.
	tracer *trace.Tracer

	// det caches host.Deterministic() (immutable per host). Deterministic
	// endpoints keep the synchronous per-message delivery path so every
	// simulated event stream stays bit-identical; everything below exists for
	// real mode only.
	det bool

	// dtr is tr's zero-copy extension when it offers one, cached so the send
	// hot path pays one nil check instead of a type assertion per message.
	dtr DirectTransport

	// ing is the real-mode MPSC ingress ring: transports enqueue arrivals
	// here and the owning process drains them in batches (see ingress.go).
	ing ingress

	// Ingress instrumentation (real mode only; deliberately kept out of
	// trace.Counters so no simulated snapshot or chaos hash can see it).
	ingressBatches  atomic.Uint64
	ingressMessages atomic.Uint64
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
	e := &Endpoint{addr: addr, host: host, ctrs: ctrs, tr: tr, det: host.Deterministic()}
	e.mb.clock = host
	if !e.det {
		e.dtr, _ = tr.(DirectTransport)
	}
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

// SendFlags is Send with delivery flags (FlagSync) in the header. Once the
// message is on its way it relaxes the host (machine.Host.Relax).
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
	if e.dtr != nil && e.dtr.TryDeliverDirect(hdr, data) {
		// Zero-copy matched receive: the payload went straight from the
		// caller's buffer into the waiting thread's buffer — no pooled
		// Message was ever built. Real mode only (dtr is nil under a
		// deterministic host).
		if e.tracer != nil {
			e.tracer.Span(trace.SpanSend, e.addr.PE, srcThread, sendBegin, e.host.Now(), uint64(len(data)))
		}
		e.host.Relax()
		return
	}
	var msg *Message
	if e.det {
		// Simulated transports may hold a message indefinitely or re-deliver
		// it under fault-injected duplication, and pool reuse order is
		// scheduling-dependent: simulation always sends fresh messages.
		msg = &Message{Data: make([]byte, len(data))}
	} else {
		msg = GetPooledMessage(len(data))
	}
	copy(msg.Data, data)
	msg.Hdr = hdr
	msg.SentAt = e.host.Now()
	e.tr.Deliver(msg)
	if e.tracer != nil {
		e.tracer.Span(trace.SpanSend, e.addr.PE, srcThread, sendBegin, e.host.Now(), uint64(len(data)))
	}
	// One unconditional hand-off per send, on this exit and the direct one:
	// the receiver now has work, and a data-independent yield keeps PEs that
	// share a core in step.
	e.host.Relax()
}

// Irecv posts a nonblocking receive for a message matching spec, to be
// deposited into buf, and returns its completion handle. If a matching
// message already arrived, the handle is born complete; the copy out of the
// system buffer is charged (this is the extra copy a pre-posted receive
// avoids).
func (e *Endpoint) Irecv(spec MatchSpec, buf []byte) *RecvHandle {
	e.drainIngress() // a ring-resident arrival must be matchable, like any early arrival
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
	e.drainIngress()
	e.ctrs.MsgTestCalls.Add(1)
	m := e.host.Model()
	if !h.done.Load() {
		e.ctrs.MsgTestFails.Add(1)
		e.host.Charge(m.MsgTestMiss)
		e.host.Relax()
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
	e.drainIngress()
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
// uses: it posts the receive and parks the processor until the message is
// deposited, with no polling (the underlying system's blocking crecv).
// It returns the payload length and the matched header.
func (e *Endpoint) Recv(spec MatchSpec, buf []byte) (int, Header, error) {
	h := e.Irecv(spec, buf)
	for !h.done.Load() {
		e.drainIngress()
		if h.done.Load() {
			break
		}
		e.host.Idle()
	}
	e.observeCompletion(h)
	n, hdr, err := h.n, h.hdr, h.err
	// The handle never left this function: recycle it (Reset clears the
	// fields, hence the copies above).
	e.ReleaseHandle(h)
	return n, hdr, err
}

// Wait parks the processor until the given handle completes, without
// polling. It is the blocking complement of Irecv (NX msgwait at process
// level).
func (e *Endpoint) Wait(h *RecvHandle) {
	for !h.done.Load() {
		e.drainIngress()
		if h.done.Load() {
			break
		}
		e.host.Idle()
	}
	e.observeCompletion(h)
}

// Probe reports whether an unexpected message matching spec has arrived,
// without consuming it.
func (e *Endpoint) Probe(spec MatchSpec) (Header, bool) {
	e.drainIngress()
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
	e.drainIngress() // an already-arrived message must win the race, as it always did
	if !e.mb.removeFailed(h, ErrTimeout, StatusTimedOut) {
		return false
	}
	e.ctrs.RecvTimeouts.Add(1)
	return true
}

// MsgwaitTimeout waits for the handle with a deadline, spin-testing rather
// than parking: each miss charges the modeled msgtest-miss cost, which
// advances virtual time under simulation, and relaxes the host, which lets
// the peer run on real ones, so the loop always reaches the deadline even if
// the message never comes — the property a parked Idle wait cannot provide
// once messages can be dropped. It returns the handle's error: nil,
// ErrTruncated, ErrTimeout, or ErrPeerDead.
func (e *Endpoint) MsgwaitTimeout(h *RecvHandle, deadline sim.Time) error {
	for {
		if e.Test(h) {
			return h.err
		}
		if e.host.Now() >= deadline {
			if e.TimeoutRecv(h) {
				return ErrTimeout
			}
			if e.Test(h) {
				return h.err
			}
		}
	}
}

// CancelRecv withdraws a posted receive that has not completed, reporting
// whether it was still pending. Used when a thread blocked in a receive is
// canceled.
func (e *Endpoint) CancelRecv(h *RecvHandle) bool {
	e.drainIngress()
	return e.mb.remove(h)
}

// QueueDepths reports the current posted-receive and unexpected-message
// queue lengths, for tests and diagnostics.
func (e *Endpoint) QueueDepths() (posted, unexpected int) {
	e.drainIngress()
	return e.mb.depths()
}

// UnexpectedSnapshot visits every unexpected message in arrival order
// without consuming any — checkpoint capture records the pending queue
// through this. The visitor must copy data it keeps (the buffers belong to
// the mailbox) and must not re-enter the endpoint.
func (e *Endpoint) UnexpectedSnapshot(visit func(hdr Header, data []byte, sentAt sim.Time)) {
	e.drainIngress() // checkpoint capture must see ring-resident in-flight messages
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
// polling policies that learn of completions from the drained ready-list
// rather than by testing.
func (e *Endpoint) Observe(h *RecvHandle) { e.observeCompletion(h) }

// TrackCompletions enables the mailbox's completion ready-list: from now on
// every posted handle this endpoint's mailbox completes (matched, failed,
// timed out) is queued for DrainCompletions; a receive born complete from an
// early arrival is not. Enabled once by the Scheduler-polls (WQ) policies;
// there is no way to disable it.
func (e *Endpoint) TrackCompletions() { e.mb.track() }

// DrainCompletions appends all handles completed since the last drain to
// buf and returns it. Drained handles may include ones the caller never
// registered (receives completed by other paths); callers filter by their
// own bookkeeping. Handles already passed to ReleaseHandle are not reported:
// the drain is what makes them safe to reuse, so it recycles them. Must be
// called from the endpoint's process context.
func (e *Endpoint) DrainCompletions(buf []*RecvHandle) []*RecvHandle {
	e.drainIngress()
	buf, e.freeHandles = e.mb.drainCompleted(buf, e.freeHandles)
	return buf
}

// ChargeTestAny performs the cost accounting of one TestAny call over n
// handles without scanning anything: the Scheduler-polls (WQAny) policy
// learns completions from the drained ready-list but must charge — and
// count — exactly what the msgtestany it replaces would have.
func (e *Endpoint) ChargeTestAny(n int) {
	e.ctrs.TestAnyCalls.Add(1)
	e.ctrs.TestAnyScanned.Add(uint64(n))
	m := e.host.Model()
	e.host.Charge(m.TestAnyBase + m.TestAnyPer.Scale(float64(n)))
}

// ChargeTestBatch performs the cost accounting of hits successful and
// misses unsuccessful msgtest calls in one bulk charge. Only valid on
// non-deterministic hosts: under simulation each charge is a yield point
// whose position affects what later tests observe, so the per-call Test
// sequence must be preserved there.
func (e *Endpoint) ChargeTestBatch(hits, misses int) {
	if check.Enabled && e.host.Deterministic() {
		check.Failf("comm: ChargeTestBatch on a deterministic host: batching charges reorders simulation yield points")
	}
	e.ctrs.MsgTestCalls.Add(uint64(hits + misses))
	e.ctrs.MsgTestFails.Add(uint64(misses))
	m := e.host.Model()
	e.host.Charge(m.MsgTestHit.Scale(float64(hits)) + m.MsgTestMiss.Scale(float64(misses)))
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
	if h.notified {
		// A completion notification for this handle is still queued on the
		// mailbox ready-list; recycling it now could let a polling policy
		// mistake the stale notification for a fresh registration. The
		// drain that consumes the notification recycles it.
		h.released = true
		return
	}
	h.Reset()
	e.freeHandles = append(e.freeHandles, h)
}

// DeliverLocal is the transport-side delivery entry point. Safe to call
// from any context (another process's goroutine, a simulator event).
//
// Deterministic endpoints match msg synchronously in the mailbox, count an
// early arrival when no receive was posted, and interrupt the host — the
// per-message path every simulated event stream was pinned against. Real
// endpoints instead push onto the MPSC ingress ring: no mailbox lock, and an
// interrupt only on the ring's empty-to-nonempty edge, so a burst costs one
// wakeup and (at the consumer) one lock acquisition instead of one per
// message. The owning process drains the ring from its polling and wait
// paths (drainIngress).
func (e *Endpoint) DeliverLocal(msg *Message) {
	if e.det {
		h, dropped := e.mb.deliver(msg)
		if dropped {
			e.ctrs.UnexpectedDropped.Add(1)
			return
		}
		if h == nil {
			e.ctrs.EarlyArrivals.Add(1)
		}
		e.host.Interrupt()
		return
	}
	if e.ing.push(msg) {
		e.host.Interrupt()
	}
}

// TryDeliverDirect attempts the zero-copy matched-receive fast path on this
// endpoint: if the mailbox lock is free, the ingress ring is empty (nothing
// to overtake), and a posted receive matches hdr, the payload is copied
// straight from data into the waiting thread's buffer and the host is
// interrupted. data is only read during the call. Safe to call from any
// context; always false on deterministic endpoints.
func (e *Endpoint) TryDeliverDirect(hdr Header, data []byte) bool {
	if e.det {
		return false
	}
	if !e.mb.tryDepositDirect(&e.ing, hdr, data) {
		return false
	}
	e.directDelivered.Add(1)
	if e.tracer != nil {
		now := e.host.Now()
		e.tracer.Span(trace.SpanDirectDeliver, e.addr.PE, trace.EndpointTID, now, now, uint64(len(data)))
	}
	e.host.Interrupt()
	return true
}

// drainIngress deposits the ingress ring's backlog into the mailbox in one
// batch. Called from the endpoint's own process context at every point that
// observes receive state (tests, waits, probes, snapshots); a no-op on
// deterministic endpoints and when the ring is empty, so polling hot paths
// pay a single atomic load.
func (e *Endpoint) drainIngress() {
	if e.det || e.ing.empty() {
		return
	}
	var drainBegin sim.Time
	if e.tracer != nil {
		drainBegin = e.host.Now()
	}
	matched, early, dropped := e.mb.depositBatch(&e.ing)
	n := matched + early + dropped
	if n == 0 {
		return
	}
	e.ingressBatches.Add(1)
	e.ingressMessages.Add(uint64(n))
	if e.tracer != nil {
		e.tracer.Span(trace.SpanIngressDrain, e.addr.PE, trace.EndpointTID,
			drainBegin, e.host.Now(), uint64(n))
	}
	if early > 0 {
		e.ctrs.EarlyArrivals.Add(uint64(early))
	}
	if dropped > 0 {
		e.ctrs.UnexpectedDropped.Add(uint64(dropped))
	}
}

// IngressStats reports how many ring drains ran, how many messages they
// deposited, and how many sends completed via the zero-copy direct path.
// Always zero on deterministic endpoints.
func (e *Endpoint) IngressStats() (batches, messages, direct uint64) {
	return e.ingressBatches.Load(), e.ingressMessages.Load(), e.directDelivered.Load()
}
