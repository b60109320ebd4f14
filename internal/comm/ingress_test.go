package comm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

// realFakeHost is a manual-clock Host reporting Deterministic()==false, so
// endpoint unit tests can exercise the real-mode data plane (ingress ring,
// batched drain, zero-copy direct path) without a wall-clock runtime.
type realFakeHost struct {
	model *machine.Model
	now   sim.Time

	// relaxes counts Relax calls; like Relax itself it belongs to the
	// endpoint's own context, so it needs no lock.
	relaxes int

	mu         sync.Mutex
	interrupts int
}

func newRealFakeHost() *realFakeHost { return &realFakeHost{model: machine.Modern()} }

func (h *realFakeHost) Now() sim.Time         { return h.now }
func (h *realFakeHost) Charge(d sim.Duration) {}
func (h *realFakeHost) Compute(units int64)   {}
func (h *realFakeHost) Relax()                { h.relaxes++ }
func (h *realFakeHost) Idle()                 { panic("realFakeHost cannot idle") }
func (h *realFakeHost) Interrupt() {
	h.mu.Lock()
	h.interrupts++
	h.mu.Unlock()
}
func (h *realFakeHost) Interrupts() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.interrupts
}
func (h *realFakeHost) Model() *machine.Model { return h.model }
func (h *realFakeHost) Deterministic() bool   { return false }

func newRealEndpoint() (*Endpoint, *realFakeHost) {
	host := newRealFakeHost()
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{PE: 0, Proc: 0}, host, &ctrs, &captureTransport{})
	return ep, host
}

func hdrFrom(srcPE, tag int32) Header {
	return Header{SrcPE: srcPE, SrcProc: 0, SrcThread: 0, DstPE: 0, DstProc: 0, Ctx: 0, Tag: tag}
}

// TestIngressFIFOPerProducer hammers the raw ring from several producers and
// checks that take() preserves each producer's push order and loses nothing.
func TestIngressFIFOPerProducer(t *testing.T) {
	const producers, perProducer = 8, 500
	var q ingress
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				m := &Message{Hdr: Header{SrcPE: int32(p), Tag: int32(i)}}
				q.push(m)
			}
		}()
	}
	wg.Wait()
	lastSeen := make([]int32, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	total := 0
	for msg := q.take(); msg != nil; msg = msg.next {
		p := msg.Hdr.SrcPE
		if msg.Hdr.Tag <= lastSeen[p] {
			t.Fatalf("producer %d reordered: tag %d after %d", p, msg.Hdr.Tag, lastSeen[p])
		}
		lastSeen[p] = msg.Hdr.Tag
		total++
	}
	if total != producers*perProducer {
		t.Fatalf("drained %d messages, want %d", total, producers*perProducer)
	}
	if !q.empty() {
		t.Fatal("ring not empty after take")
	}
}

// TestIngressBatchedDrain checks that a burst of real-mode deliveries is
// deposited in one batch by the next receive-side operation, with one
// interrupt for the whole burst.
func TestIngressBatchedDrain(t *testing.T) {
	ep, host := newRealEndpoint()
	const burst = 16
	for i := 0; i < burst; i++ {
		m := &Message{Hdr: hdrFrom(1, int32(i))}
		m.Data = []byte(fmt.Sprintf("m%d", i))
		ep.DeliverLocal(m)
	}
	if got := host.Interrupts(); got != 1 {
		t.Fatalf("burst of %d raised %d interrupts, want 1 (empty-to-nonempty edge only)", burst, got)
	}
	if ep.Counters().EarlyArrivals.Load() != 0 {
		t.Fatal("early arrivals counted before any drain")
	}
	// Any receive-side operation drains the whole backlog in one batch.
	if _, unexp := ep.QueueDepths(); unexp != burst {
		t.Fatalf("unexpected queue after drain: %d, want %d", unexp, burst)
	}
	batches, msgs, _ := ep.IngressStats()
	if batches != 1 || msgs != burst {
		t.Fatalf("ingress stats: %d batches / %d messages, want 1 / %d", batches, msgs, burst)
	}
	if got := ep.Counters().EarlyArrivals.Load(); got != burst {
		t.Fatalf("early arrivals after drain: %d, want %d", got, burst)
	}
	// FIFO through the ring: the unexpected queue holds the burst in push
	// order.
	var tags []int32
	ep.UnexpectedSnapshot(func(hdr Header, data []byte, _ sim.Time) {
		tags = append(tags, hdr.Tag)
	})
	for i, tag := range tags {
		if tag != int32(i) {
			t.Fatalf("unexpected queue out of order: position %d holds tag %d", i, tag)
		}
	}
}

// TestDirectDeliverZeroCopy checks the matched-receive fast path: with a
// posted receive, TryDeliverDirect completes it from the caller's buffer
// without any Message, and the stats record the direct delivery.
func TestDirectDeliverZeroCopy(t *testing.T) {
	ep, host := newRealEndpoint()
	buf := make([]byte, 16)
	h := ep.Irecv(MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: 7}, buf)
	payload := []byte("hello")
	if !ep.TryDeliverDirect(hdrFrom(1, 7), payload) {
		t.Fatal("direct delivery declined with a matching receive posted")
	}
	if !h.Done() {
		t.Fatal("handle not done after direct delivery")
	}
	if !bytes.Equal(buf[:h.Len()], payload) {
		t.Fatalf("deposited %q, want %q", buf[:h.Len()], payload)
	}
	if _, _, direct := ep.IngressStats(); direct != 1 {
		t.Fatalf("direct count %d, want 1", direct)
	}
	if host.Interrupts() != 1 {
		t.Fatalf("interrupts %d, want 1", host.Interrupts())
	}
	// Without a matching posted receive the fast path declines — the message
	// must take the ordinary path so it can join the unexpected queue.
	if ep.TryDeliverDirect(hdrFrom(1, 99), payload) {
		t.Fatal("direct delivery accepted with no matching receive")
	}
}

// TestDirectRespectsRingOrder checks the non-overtaking guard: while earlier
// arrivals sit undrained in the ingress ring, the direct path must decline,
// or a sender's second message could complete a receive before its first.
func TestDirectRespectsRingOrder(t *testing.T) {
	ep, _ := newRealEndpoint()
	buf := make([]byte, 16)
	ep.Irecv(MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: Any}, buf)
	// First message from the same sender is still in the ring (the consumer
	// has not drained)...
	first := &Message{Hdr: hdrFrom(1, 1), Data: []byte("first")}
	ep.ing.push(first)
	// ...so the sender's second message must not jump the queue.
	if ep.TryDeliverDirect(hdrFrom(1, 2), []byte("second")) {
		t.Fatal("direct delivery overtook a ring-resident message")
	}
	ep.drainIngress()
	var tags []int32
	ep.UnexpectedSnapshot(func(hdr Header, _ []byte, _ sim.Time) { tags = append(tags, hdr.Tag) })
	if len(tags) != 0 {
		t.Fatalf("unexpected queue %v; the posted wildcard receive should have matched the first message", tags)
	}
}

// TestDeterministicEndpointBypassesRing checks the sim-isolation invariant:
// a deterministic endpoint delivers synchronously and never touches the
// ingress ring or the direct path, so simulated event streams cannot see
// either.
func TestDeterministicEndpointBypassesRing(t *testing.T) {
	host := newFakeHost()
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{PE: 0, Proc: 0}, host, &ctrs, &captureTransport{})
	if ep.TryDeliverDirect(hdrFrom(1, 7), []byte("x")) {
		t.Fatal("direct delivery accepted on a deterministic endpoint")
	}
	ep.DeliverLocal(&Message{Hdr: hdrFrom(1, 1), Data: []byte("x")})
	if host.interrupts != 1 {
		t.Fatalf("deterministic delivery raised %d interrupts, want 1 (synchronous path)", host.interrupts)
	}
	if batches, msgs, direct := ep.IngressStats(); batches != 0 || msgs != 0 || direct != 0 {
		t.Fatalf("deterministic endpoint touched the ring: stats %d/%d/%d", batches, msgs, direct)
	}
	if ctrs.EarlyArrivals.Load() != 1 {
		t.Fatal("early arrival not counted synchronously on the deterministic path")
	}
}

// TestDirectTruncationAndSyncFlag checks that the zero-copy deposit keeps
// complete()'s semantics: truncation to the posted buffer is reported, and
// the FlagSync acknowledgement latch still works.
func TestDirectTruncationAndSyncFlag(t *testing.T) {
	ep, _ := newRealEndpoint()
	buf := make([]byte, 3)
	h := ep.Irecv(MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: 7}, buf)
	hdr := hdrFrom(1, 7)
	hdr.Flags = FlagSync
	if !ep.TryDeliverDirect(hdr, []byte("hello")) {
		t.Fatal("direct delivery declined")
	}
	if h.Err() != ErrTruncated {
		t.Fatalf("err %v, want ErrTruncated", h.Err())
	}
	if string(buf) != "hel" {
		t.Fatalf("buffer %q, want %q", buf, "hel")
	}
	if !h.NeedsSyncAck() {
		t.Fatal("sync send not flagged for acknowledgement")
	}
	if h.NeedsSyncAck() {
		t.Fatal("sync ack latch fired twice")
	}
}
