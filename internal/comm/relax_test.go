package comm

import (
	"testing"

	"chant/internal/machine"
	"chant/internal/trace"
)

// selfTransport loops an endpoint's sends back to itself. While direct is
// set it is a reachable DirectTransport, the way memnet is to an open peer;
// otherwise DeliverFrom declines and sends take the Deliver path.
type selfTransport struct {
	ep     *Endpoint
	direct bool
}

func (tr *selfTransport) Deliver(m *Message) { tr.ep.DeliverLocal(m) }
func (tr *selfTransport) DeliverFrom(hdr Header, data []byte, from machine.Host) bool {
	if tr.direct {
		tr.ep.DeliverFrom(hdr, data, from)
	}
	return tr.direct
}

// TestRelaxRule pins where a real-mode endpoint offers its OS processor:
// once per missed Test, TestAny or Probe, and nowhere else. A send only
// injects, on each of its exits (a deposit into a posted receive, the
// unexpected queue, the transport's Deliver); the sender relaxes where it
// next waits. A missed Poll, the Scheduler-polls (WQ) walk's msgtest, and
// an Irecv relax neither.
func TestRelaxRule(t *testing.T) {
	host := newFakeHost(machine.Modern())
	tr := &selfTransport{direct: true}
	ep := NewEndpoint(Addr{PE: 0, Proc: 0}, host, &trace.Counters{}, tr)
	tr.ep = ep
	self := Addr{PE: 0, Proc: 0}
	spec := func(tag int32) MatchSpec {
		return MatchSpec{SrcPE: 0, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: tag}
	}
	step := func(what string, want int, op func()) {
		t.Helper()
		before := host.relaxes
		op()
		if got := host.relaxes - before; got != want {
			t.Errorf("%s: %d Relax calls, want %d", what, got, want)
		}
	}
	buf := make([]byte, 8)
	var h *RecvHandle

	step("Irecv", 0, func() { h = ep.Irecv(spec(1), buf) })
	step("missed Test", 1, func() {
		if ep.Test(h) {
			t.Fatal("Test hit before any send")
		}
	})
	step("missed Poll", 0, func() {
		if ep.Poll(h) {
			t.Fatal("Poll hit before any send")
		}
	})
	step("TestAny with nothing complete", 1, func() {
		if i := ep.TestAny([]*RecvHandle{h}); i != -1 {
			t.Fatalf("TestAny = %d before any send", i)
		}
	})
	step("Send into a posted receive (DeliverFrom, deposited)", 0, func() { ep.Send(self, 0, 1, 0, []byte("a")) })
	if _, _, direct := ep.IngressStats(); direct != 1 {
		t.Fatalf("direct deliveries %d, want 1: the send took the wrong exit", direct)
	}
	step("hit Test", 0, func() {
		if !ep.Test(h) {
			t.Fatal("Test missed after the send")
		}
	})
	step("TestAny hit", 0, func() {
		if i := ep.TestAny([]*RecvHandle{h}); i != 0 {
			t.Fatalf("TestAny = %d, want 0", i)
		}
	})

	step("missed Probe", 1, func() {
		if _, ok := ep.Probe(spec(2)); ok {
			t.Fatal("Probe hit before any send")
		}
	})
	step("Send with no receive posted (DeliverFrom, queued)", 0, func() { ep.Send(self, 0, 2, 0, []byte("b")) })
	tr.direct = false
	step("Send through Deliver (DeliverFrom declined)", 0, func() { ep.Send(self, 0, 3, 0, []byte("c")) })
	if _, msgs, direct := ep.IngressStats(); direct != 1 || msgs != 2 {
		t.Fatalf("direct %d, messages %d; want 1, 2: a send took the wrong path", direct, msgs)
	}
	step("hit Probe", 0, func() {
		if _, ok := ep.Probe(spec(2)); !ok {
			t.Fatal("Probe missed a queued message")
		}
	})
	step("Irecv of an early arrival", 0, func() { h = ep.Irecv(spec(2), buf) })
	if !h.Done() {
		t.Fatal("early arrival did not complete the receive at post time")
	}
}
