package comm

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

func newRealEndpoint() (*Endpoint, *fakeHost) {
	host := newFakeHost(machine.Modern())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{PE: 0, Proc: 0}, host, &ctrs, &captureTransport{})
	return ep, host
}

func hdrFrom(srcPE, tag int32) Header {
	return Header{SrcPE: srcPE, SrcProc: 0, SrcThread: 0, DstPE: 0, DstProc: 0, Ctx: 0, Tag: tag}
}

// TestDirectDeliverZeroCopy checks the borrowed-buffer arrival: with a
// posted receive, DeliverFrom completes it from the caller's buffer without
// any Message, and the stats record the direct delivery; with none, it
// queues a copy stamped with the sender's clock that no later write to the
// caller's buffer can reach.
func TestDirectDeliverZeroCopy(t *testing.T) {
	ep, host := newRealEndpoint()
	buf := make([]byte, 16)
	h := ep.Irecv(MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: 7}, buf)
	payload := []byte("hello")
	ep.DeliverFrom(hdrFrom(1, 7), payload, nil)
	if !h.Done() {
		t.Fatal("handle not done after direct delivery")
	}
	if !bytes.Equal(buf[:h.Len()], payload) {
		t.Fatalf("deposited %q, want %q", buf[:h.Len()], payload)
	}
	if _, msgs, direct := ep.IngressStats(); direct != 1 || msgs != 0 {
		t.Fatalf("direct %d, messages %d; want 1, 0", direct, msgs)
	}
	if host.Interrupts() != 1 {
		t.Fatalf("interrupts %d, want 1", host.Interrupts())
	}

	// Without a matching posted receive the arrival is queued as a copy.
	sender := newFakeHost(machine.Modern())
	sender.now = 42
	ep.DeliverFrom(hdrFrom(1, 99), payload, sender)
	copy(payload, "XXXXX")
	if _, msgs, direct := ep.IngressStats(); direct != 1 || msgs != 1 {
		t.Fatalf("direct %d, messages %d; want 1, 1", direct, msgs)
	}
	var sentAt sim.Time
	ep.UnexpectedSnapshot(func(_ Header, data []byte, at sim.Time) {
		sentAt = at
		if string(data) != "hello" {
			t.Errorf("queued copy reads %q, want %q", data, "hello")
		}
	})
	if sentAt != 42 {
		t.Errorf("queued copy stamped %v, want the sender's clock 42", sentAt)
	}
}

// TestDirectRespectsArrivalOrder checks non-overtaking across both arrival
// forms: a producer alternates borrowed-buffer arrivals (DeliverFrom, the
// way memnet's sends arrive) with owned messages (DeliverLocal), while the
// consumer posts one tag-wildcard receive at a time, so each form sometimes
// finds the receive posted and sometimes queues. An arrival is in the
// mailbox before the producer's next one, so the receives must see the tags
// in send order.
func TestDirectRespectsArrivalOrder(t *testing.T) {
	ep, _ := newRealEndpoint()
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int32(0); i < n; i++ {
			hdr := hdrFrom(1, i)
			if i%2 == 0 {
				ep.DeliverFrom(hdr, []byte("x"), nil)
			} else {
				ep.DeliverLocal(&Message{Hdr: hdr, Data: []byte("x")})
			}
		}
	}()
	buf := make([]byte, 1)
	for i := int32(0); i < n; i++ {
		h := ep.Irecv(MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: Any}, buf)
		for !h.Done() {
			runtime.Gosched()
		}
		if tag := h.Header().Tag; tag != i {
			t.Fatalf("receive %d got tag %d: a message overtook an earlier one", i, tag)
		}
		ep.ReleaseHandle(h)
	}
	wg.Wait()
}

// TestUnexpectedCapBoundsStalledReceiver checks that a capped unexpected
// queue bounds a real-mode endpoint's arrivals as they arrive, not at the
// receiver's next operation: two producers deliver ten messages, no
// receive-side call runs, and four are queued and six dropped already.
func TestUnexpectedCapBoundsStalledReceiver(t *testing.T) {
	ep, host := newRealEndpoint()
	ep.SetUnexpectedCap(4)
	var wg sync.WaitGroup
	for src := int32(1); src <= 2; src++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int32(0); i < 5; i++ {
				ep.DeliverLocal(&Message{Hdr: hdrFrom(src, i), Data: []byte("x")})
			}
		}()
	}
	wg.Wait()
	ctrs := ep.Counters()
	if got := ctrs.UnexpectedDropped.Load(); got != 6 {
		t.Fatalf("UnexpectedDropped = %d before any receive-side call, want 6", got)
	}
	if got := ctrs.EarlyArrivals.Load(); got != 4 {
		t.Errorf("EarlyArrivals = %d, want 4 (only queued arrivals count)", got)
	}
	if got := host.Interrupts(); got != 4 {
		t.Errorf("interrupts = %d, want 4 (one per queued arrival, none per drop)", got)
	}
	if _, unexp := ep.QueueDepths(); unexp != 4 {
		t.Errorf("unexpected queue holds %d, want the cap of 4", unexp)
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
	ep.DeliverFrom(hdr, []byte("hello"), nil)
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
