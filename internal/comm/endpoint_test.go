package comm

import (
	"sync"
	"testing"

	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

// fakeHost is a manual-clock Host for unit-testing an endpoint without a
// simulation kernel or a wall clock: Charge advances now, and the counts
// say how often the endpoint relaxed and interrupted. An endpoint test never
// waits, so Idle and Pause panic.
type fakeHost struct {
	model *machine.Model

	// relaxes counts Relax calls; like Relax itself it belongs to the
	// endpoint's own context, so it needs no lock.
	relaxes int

	// mu guards the fields arrivals from other goroutines reach: the clock
	// (the mailbox stamps a direct deposit with it) and the interrupts.
	mu         sync.Mutex
	now        sim.Time
	charged    sim.Duration
	interrupts int
}

func newFakeHost(model *machine.Model) *fakeHost { return &fakeHost{model: model} }

func (h *fakeHost) Now() sim.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.now
}
func (h *fakeHost) Charge(d sim.Duration) {
	h.mu.Lock()
	h.charged += d
	h.now = h.now.Add(d)
	h.mu.Unlock()
}
func (h *fakeHost) Compute(units int64) { h.Charge(sim.Duration(units) * h.model.ComputeUnit) }
func (h *fakeHost) Relax()              { h.relaxes++ }
func (h *fakeHost) Idle()               { panic("fakeHost cannot idle") }
func (h *fakeHost) Pause()              { panic("fakeHost cannot pause") }
func (h *fakeHost) Interrupt() {
	h.mu.Lock()
	h.interrupts++
	h.mu.Unlock()
}
func (h *fakeHost) Interrupts() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.interrupts
}
func (h *fakeHost) Model() *machine.Model { return h.model }

// captureTransport records sent messages instead of delivering them.
type captureTransport struct{ msgs []*Message }

func (tr *captureTransport) Deliver(m *Message) { tr.msgs = append(tr.msgs, m) }

// loopTransport delivers every message straight back to one endpoint.
type loopTransport struct{ ep *Endpoint }

func (tr *loopTransport) Deliver(m *Message) { tr.ep.DeliverLocal(m) }

func TestSendChargesAndCopies(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	tr := &captureTransport{}
	ep := NewEndpoint(Addr{PE: 0, Proc: 0}, host, &ctrs, tr)

	buf := []byte("payload")
	ep.Send(Addr{PE: 1, Proc: 0}, 5, 9, 2, buf)
	if host.charged != host.model.SendOverhead {
		t.Fatalf("charged %v, want SendOverhead %v", host.charged, host.model.SendOverhead)
	}
	if ctrs.Sends.Load() != 1 || ctrs.BytesSent.Load() != 7 {
		t.Fatalf("send counters wrong: %d sends, %d bytes", ctrs.Sends.Load(), ctrs.BytesSent.Load())
	}
	m := tr.msgs[0]
	if m.Hdr.DstPE != 1 || m.Hdr.Ctx != 5 || m.Hdr.Tag != 9 || m.Hdr.SrcThread != 2 || m.Hdr.Size != 7 {
		t.Fatalf("header wrong: %+v", m.Hdr)
	}
	// Locally-blocking semantics: mutating the caller's buffer afterwards
	// must not corrupt the in-flight message.
	buf[0] = 'X'
	if string(m.Data) != "payload" {
		t.Fatalf("in-flight data aliased the sender buffer: %q", m.Data)
	}
}

func TestTestMissAndHitCosts(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})
	lt := &loopTransport{ep: ep}

	h := ep.Irecv(MatchAll, make([]byte, 8))
	host.charged = 0
	if ep.Test(h) {
		t.Fatal("test of pending receive reported done")
	}
	if host.charged != host.model.MsgTestMiss {
		t.Fatalf("miss charged %v, want %v", host.charged, host.model.MsgTestMiss)
	}
	if ctrs.MsgTestCalls.Load() != 1 || ctrs.MsgTestFails.Load() != 1 {
		t.Fatal("miss not counted")
	}

	lt.Deliver(&Message{Hdr: Header{Size: 2}, Data: []byte("ok")})
	if host.Interrupts() != 1 {
		t.Fatal("delivery did not interrupt the host")
	}
	host.charged = 0
	if !ep.Test(h) {
		t.Fatal("test after delivery reported pending")
	}
	want := host.model.MsgTestHit + host.model.RecvOverhead
	if host.charged != want {
		t.Fatalf("hit charged %v, want %v", host.charged, want)
	}
	if ctrs.Recvs.Load() != 1 {
		t.Fatal("completed receive not counted")
	}

	// Completion overhead must be charged only once.
	host.charged = 0
	ep.Test(h)
	if host.charged != host.model.MsgTestHit {
		t.Fatalf("second test recharged completion: %v", host.charged)
	}
	if ctrs.Recvs.Load() != 1 {
		t.Fatal("receive double-counted")
	}
}

func TestEarlyArrivalChargesCopy(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})

	payload := make([]byte, 1000)
	ep.DeliverLocal(&Message{Hdr: Header{Size: 1000}, Data: payload})
	if ctrs.EarlyArrivals.Load() != 1 {
		t.Fatal("early arrival not counted")
	}
	host.charged = 0
	h := ep.Irecv(MatchAll, make([]byte, 1000))
	if !h.Done() {
		t.Fatal("post against buffered message should complete immediately")
	}
	if ctrs.RecvImmediate.Load() != 1 {
		t.Fatal("immediate receive not counted")
	}
	if host.charged != host.model.CopyCost(1000) {
		t.Fatalf("system-buffer copy charged %v, want %v", host.charged, host.model.CopyCost(1000))
	}
}

func TestTestAny(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})

	h1 := ep.Irecv(MatchSpec{SrcPE: Any, SrcProc: Any, Ctx: Any, Tag: 1}, make([]byte, 8))
	h2 := ep.Irecv(MatchSpec{SrcPE: Any, SrcProc: Any, Ctx: Any, Tag: 2}, make([]byte, 8))
	hs := []*RecvHandle{h1, h2}

	host.charged = 0
	if got := ep.TestAny(hs); got != -1 {
		t.Fatalf("TestAny with nothing arrived = %d, want -1", got)
	}
	want := host.model.TestAnyBase + host.model.TestAnyPer.Scale(2)
	if host.charged != want {
		t.Fatalf("TestAny charged %v, want %v", host.charged, want)
	}
	ep.DeliverLocal(&Message{Hdr: Header{Tag: 2, Size: 1}, Data: []byte("x")})
	if got := ep.TestAny(hs); got != 1 {
		t.Fatalf("TestAny = %d, want 1", got)
	}
	if ctrs.TestAnyCalls.Load() != 2 || ctrs.TestAnyScanned.Load() != 4 {
		t.Fatalf("testany counters wrong: %d calls %d scanned",
			ctrs.TestAnyCalls.Load(), ctrs.TestAnyScanned.Load())
	}
}

func TestProbe(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})

	if _, ok := ep.Probe(MatchAll); ok {
		t.Fatal("probe on empty endpoint matched")
	}
	ep.DeliverLocal(&Message{Hdr: Header{Tag: 3, Size: 1}, Data: []byte("x")})
	hdr, ok := ep.Probe(MatchSpec{SrcPE: Any, SrcProc: Any, Ctx: Any, Tag: 3})
	if !ok || hdr.Tag != 3 {
		t.Fatalf("probe failed: ok=%v hdr=%+v", ok, hdr)
	}
}

func TestCancelRecv(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})

	h := ep.Irecv(MatchAll, make([]byte, 8))
	if !ep.CancelRecv(h) {
		t.Fatal("cancel of pending receive failed")
	}
	if posted, _ := ep.QueueDepths(); posted != 0 {
		t.Fatal("canceled receive still posted")
	}
}
