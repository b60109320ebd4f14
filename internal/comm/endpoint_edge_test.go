package comm

import (
	"sync"
	"testing"

	"chant/internal/machine"
	"chant/internal/trace"
)

// Edge cases for the endpoint beyond the basic cost-accounting tests.

func TestWaitOnAlreadyCompleteHandle(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})
	ep.DeliverLocal(&Message{Hdr: Header{Size: 1}, Data: []byte("x")})
	h := ep.Irecv(MatchAll, make([]byte, 4))
	if !h.Done() {
		t.Fatal("handle not born complete")
	}
	ep.Wait(h) // must not call Idle (fakeHost panics on Idle)
	if ctrs.Recvs.Load() != 1 {
		t.Fatal("completion not observed")
	}
}

func TestTestAnyEmptyList(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})
	if got := ep.TestAny(nil); got != -1 {
		t.Fatalf("TestAny(nil) = %d", got)
	}
	if got := ep.TestAny([]*RecvHandle{}); got != -1 {
		t.Fatalf("TestAny(empty) = %d", got)
	}
}

func TestTestAnyReturnsFirstCompleted(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})
	h1 := ep.Irecv(MatchSpec{SrcPE: Any, SrcProc: Any, SrcThread: Any, Ctx: Any, Tag: 1}, make([]byte, 4))
	h2 := ep.Irecv(MatchSpec{SrcPE: Any, SrcProc: Any, SrcThread: Any, Ctx: Any, Tag: 2}, make([]byte, 4))
	h3 := ep.Irecv(MatchSpec{SrcPE: Any, SrcProc: Any, SrcThread: Any, Ctx: Any, Tag: 3}, make([]byte, 4))
	ep.DeliverLocal(&Message{Hdr: Header{Tag: 2, Size: 1}, Data: []byte("b")})
	ep.DeliverLocal(&Message{Hdr: Header{Tag: 3, Size: 1}, Data: []byte("c")})
	if got := ep.TestAny([]*RecvHandle{h1, h2, h3}); got != 1 {
		t.Fatalf("TestAny = %d, want 1 (first completed in list order)", got)
	}
}

func TestZeroLengthMessage(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})
	h := ep.Irecv(MatchAll, nil)
	ep.DeliverLocal(&Message{Hdr: Header{Tag: 1}, Data: nil})
	if !h.Done() || h.Len() != 0 || h.Err() != nil {
		t.Fatalf("zero-length delivery: done=%v n=%d err=%v", h.Done(), h.Len(), h.Err())
	}
}

func TestTruncationOnImmediatePath(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})
	ep.DeliverLocal(&Message{Hdr: Header{Size: 6}, Data: []byte("toobig")})
	h := ep.Irecv(MatchAll, make([]byte, 3))
	if h.Err() != ErrTruncated || h.Len() != 3 {
		t.Fatalf("immediate truncation: n=%d err=%v", h.Len(), h.Err())
	}
}

func TestWildcardRecvPreservesArrivalOrder(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})
	// Messages from three different sources arrive, then a wildcard
	// receive drains them: FIFO across sources.
	for i := int32(0); i < 3; i++ {
		ep.DeliverLocal(&Message{Hdr: Header{SrcPE: i, Tag: 1, Size: 1}, Data: []byte{byte(i)}})
	}
	for i := int32(0); i < 3; i++ {
		buf := make([]byte, 1)
		h := ep.Irecv(MatchSpec{SrcPE: Any, SrcProc: Any, SrcThread: Any, Ctx: Any, Tag: 1}, buf)
		if !h.Done() || h.Header().SrcPE != i {
			t.Fatalf("arrival order broken at %d: src=%d", i, h.Header().SrcPE)
		}
	}
}

func TestCancelCompletedRecvIsNoop(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})
	h := ep.Irecv(MatchAll, make([]byte, 4))
	ep.DeliverLocal(&Message{Hdr: Header{Size: 1}, Data: []byte("x")})
	if ep.CancelRecv(h) {
		t.Fatal("cancel of completed receive reported pending")
	}
	if h.Canceled() {
		t.Fatal("completed handle marked canceled")
	}
}

func TestProbeDoesNotSeePosted(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})
	// Probe inspects unexpected messages only: a message consumed by a
	// posted receive never shows up.
	ep.Irecv(MatchAll, make([]byte, 4))
	ep.DeliverLocal(&Message{Hdr: Header{Tag: 5, Size: 1}, Data: []byte("x")})
	if _, ok := ep.Probe(MatchAll); ok {
		t.Fatal("probe matched a message already delivered to a posted receive")
	}
}

func TestSelectiveRecvLeavesOthersBuffered(t *testing.T) {
	host := newFakeHost(machine.Paragon1994())
	var ctrs trace.Counters
	ep := NewEndpoint(Addr{}, host, &ctrs, &captureTransport{})
	ep.DeliverLocal(&Message{Hdr: Header{Tag: 1, Size: 1}, Data: []byte("a")})
	ep.DeliverLocal(&Message{Hdr: Header{Tag: 2, Size: 1}, Data: []byte("b")})
	h := ep.Irecv(MatchSpec{SrcPE: Any, SrcProc: Any, SrcThread: Any, Ctx: Any, Tag: 2}, make([]byte, 4))
	if !h.Done() || h.Header().Tag != 2 {
		t.Fatal("selective receive failed")
	}
	if _, unexpected := ep.QueueDepths(); unexpected != 1 {
		t.Fatalf("other message lost: %d buffered", unexpected)
	}
}

// TestPeerDeadFastPath checks the dead-peer count that lets PeerDead, asked
// on every pinned Irecv, skip its lock while no peer is dead: each dead peer
// counts once, only the recovery of a dead peer lowers the count, and a
// detector on another goroutine may flip a peer while the owner keeps
// posting pinned receives.
func TestPeerDeadFastPath(t *testing.T) {
	ep, _ := newRealEndpoint()
	dead, alive := Addr{PE: 1}, Addr{PE: 2}
	pinned := func(a Addr) MatchSpec {
		return MatchSpec{SrcPE: a.PE, SrcProc: a.Proc, SrcThread: Any, Ctx: Any, Tag: Any}
	}

	ep.MarkPeerDead(dead)
	ep.MarkPeerDead(dead)
	if n, c := ep.nDead.Load(), ep.ctrs.PeersDead.Load(); n != 1 || c != 1 {
		t.Fatalf("double MarkPeerDead: count %d, PeersDead %d; want 1, 1", n, c)
	}
	if ep.MarkPeerAlive(alive) || ep.nDead.Load() != 1 {
		t.Fatalf("MarkPeerAlive of a never-dead peer changed the count to %d", ep.nDead.Load())
	}
	if h := ep.Irecv(pinned(dead), nil); !h.Done() || h.Err() != ErrPeerDead {
		t.Fatalf("pinned receive from a dead peer: done=%v err=%v, want born ErrPeerDead", h.Done(), h.Err())
	}
	if !ep.MarkPeerAlive(dead) || ep.nDead.Load() != 0 || ep.PeerDead(dead) {
		t.Fatalf("after recovery: count %d, PeerDead %v; want 0, false", ep.nDead.Load(), ep.PeerDead(dead))
	}
	h := ep.Irecv(pinned(dead), nil)
	if h.Done() {
		t.Fatal("pinned receive failed after its peer recovered")
	}
	ep.CancelRecv(h)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ep.MarkPeerDead(dead)
			ep.MarkPeerAlive(dead)
		}
	}()
	for i := 0; i < 2000; i++ {
		h := ep.Irecv(pinned(alive), nil)
		if h.Done() {
			t.Errorf("receive pinned to a live peer completed: err=%v", h.Err())
		}
		ep.CancelRecv(h)
		ep.ReleaseHandle(h)
		// Pending or failed, by the detector's timing; never anything else.
		h = ep.Irecv(pinned(dead), nil)
		if !ep.CancelRecv(h) && h.Err() != ErrPeerDead {
			t.Errorf("receive pinned to a flapping peer: done=%v err=%v", h.Done(), h.Err())
		}
		ep.ReleaseHandle(h)
	}
	close(stop)
	wg.Wait()
	if n, d, r := ep.nDead.Load(), ep.ctrs.PeersDead.Load(), ep.ctrs.PeersRecovered.Load(); n != 0 || d != r {
		t.Fatalf("after balanced flaps: count %d, PeersDead %d, PeersRecovered %d", n, d, r)
	}
}
