package memnet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

func newPair(t *testing.T) (*comm.Endpoint, *comm.Endpoint) {
	t.Helper()
	net := New()
	model := machine.Modern()
	a := net.NewEndpoint(comm.Addr{PE: 0, Proc: 0}, machine.NewRealHost(model), &trace.Counters{})
	b := net.NewEndpoint(comm.Addr{PE: 1, Proc: 0}, machine.NewRealHost(model), &trace.Counters{})
	return a, b
}

func TestMemnetBasicSendRecv(t *testing.T) {
	a, b := newPair(t)
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 32)
		n, hdr, err := b.Recv(comm.MatchAll, buf)
		if err != nil {
			t.Error(err)
		}
		done <- fmt.Sprintf("%s/tag%d", buf[:n], hdr.Tag)
	}()
	a.Send(comm.Addr{PE: 1, Proc: 0}, 0, 42, 0, []byte("hello"))
	if got := <-done; got != "hello/tag42" {
		t.Fatalf("got %q", got)
	}
}

func TestMemnetConcurrentTraffic(t *testing.T) {
	a, b := newPair(t)
	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			a.Send(comm.Addr{PE: 1, Proc: 0}, 0, 1, 0, []byte{byte(i)})
		}
	}()
	var sum int
	go func() {
		defer wg.Done()
		buf := make([]byte, 1)
		for i := 0; i < n; i++ {
			b.Recv(comm.MatchAll, buf)
			sum += int(buf[0])
		}
	}()
	wg.Wait()
	want := n * (n - 1) / 2 % 256 // bytes wrap, so compare mod-256 sums
	got := 0
	for i := 0; i < n; i++ {
		got += int(byte(i))
	}
	if sum != got {
		t.Fatalf("sum=%d want=%d", sum, want)
	}
	if b.Counters().Recvs.Load() != n {
		t.Fatalf("recv count = %d, want %d", b.Counters().Recvs.Load(), n)
	}
}

func TestMemnetBidirectionalPingPong(t *testing.T) {
	a, b := newPair(t)
	const rounds = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			a.Send(comm.Addr{PE: 1, Proc: 0}, 0, 1, 0, []byte("ping"))
			a.Recv(comm.MatchAll, buf)
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			b.Recv(comm.MatchAll, buf)
			b.Send(comm.Addr{PE: 0, Proc: 0}, 0, 1, 0, []byte("pong"))
		}
	}()
	wg.Wait()
}

func TestMemnetUnknownDestinationPanics(t *testing.T) {
	a, _ := newPair(t)
	defer func() {
		if recover() == nil {
			t.Error("send to unknown process did not panic")
		}
	}()
	a.Send(comm.Addr{PE: 9, Proc: 9}, 0, 1, 0, []byte("x"))
}

// pinnedSpec matches anything from the given process only.
func pinnedSpec(src comm.Addr) comm.MatchSpec {
	return comm.MatchSpec{SrcPE: src.PE, SrcProc: src.Proc, SrcThread: comm.Any, Ctx: comm.Any, Tag: comm.Any}
}

// newPairNet is newPair but also exposing the network, for failure tests.
func newPairNet(t *testing.T) (*Network, *comm.Endpoint, *comm.Endpoint) {
	t.Helper()
	net := New()
	model := machine.Modern()
	a := net.NewEndpoint(comm.Addr{PE: 0, Proc: 0}, machine.NewRealHost(model), &trace.Counters{})
	b := net.NewEndpoint(comm.Addr{PE: 1, Proc: 0}, machine.NewRealHost(model), &trace.Counters{})
	return net, a, b
}

func TestMemnetClosePeerFailsPinnedRecvs(t *testing.T) {
	net, a, _ := newPairNet(t)
	peer := comm.Addr{PE: 1, Proc: 0}
	h := a.Irecv(pinnedSpec(peer), make([]byte, 8))
	net.ClosePeer(peer)
	if !a.Test(h) || !errors.Is(h.Err(), comm.ErrPeerDead) {
		t.Fatalf("posted pinned recv after ClosePeer: done=%v err=%v", h.Done(), h.Err())
	}
	if h.Status() != comm.StatusPeerDead {
		t.Errorf("status = %v, want %v", h.Status(), comm.StatusPeerDead)
	}
	if !a.PeerDead(peer) {
		t.Error("PeerDead not reported")
	}
	// A receive posted after the failure is born failed.
	h2 := a.Irecv(pinnedSpec(peer), nil)
	if !a.Test(h2) || !errors.Is(h2.Err(), comm.ErrPeerDead) {
		t.Errorf("new pinned recv: done=%v err=%v", h2.Done(), h2.Err())
	}
	// MsgwaitTimeout surfaces the death instead of waiting out the deadline.
	h3 := a.Irecv(pinnedSpec(peer), nil)
	if err := a.MsgwaitTimeout(h3, a.Host().Now().Add(sim.Second)); !errors.Is(err, comm.ErrPeerDead) {
		t.Errorf("MsgwaitTimeout on dead peer: %v", err)
	}
	// Sends to the dead peer are discarded and counted, not delivered.
	a.Send(peer, 0, 1, 0, []byte("x"))
	if got := a.Counters().FaultDrops.Load(); got == 0 {
		t.Error("send to dead peer not counted as a fault drop")
	}
	if got := a.Counters().PeersDead.Load(); got != 1 {
		t.Errorf("PeersDead = %d, want 1", got)
	}
}

func TestMemnetReopenPeerRevives(t *testing.T) {
	net, a, b := newPairNet(t)
	peer := comm.Addr{PE: 1, Proc: 0}
	net.ClosePeer(peer)
	if !a.PeerDead(peer) {
		t.Fatal("ClosePeer did not mark the peer dead")
	}
	// While closed, a pinned receive is born failed.
	h := a.Irecv(pinnedSpec(peer), make([]byte, 8))
	if !a.Test(h) || !errors.Is(h.Err(), comm.ErrPeerDead) {
		t.Fatalf("pinned recv against closed peer: done=%v err=%v", h.Done(), h.Err())
	}
	net.ReopenPeer(peer)
	if a.PeerDead(peer) {
		t.Fatal("ReopenPeer left the peer marked dead")
	}
	if got := a.Counters().PeersRecovered.Load(); got != 1 {
		t.Errorf("PeersRecovered = %d, want 1", got)
	}
	// Traffic flows again in both directions.
	buf := make([]byte, 16)
	h2 := a.Irecv(pinnedSpec(peer), buf)
	b.Send(comm.Addr{PE: 0, Proc: 0}, 0, 7, 0, []byte("back"))
	if err := a.MsgwaitTimeout(h2, a.Host().Now().Add(sim.Second)); err != nil {
		t.Fatalf("recv from reopened peer: %v", err)
	}
	if string(buf[:h2.Len()]) != "back" {
		t.Errorf("got %q", buf[:h2.Len()])
	}
	drops := a.Counters().FaultDrops.Load()
	a.Send(peer, 0, 1, 0, []byte("hello again"))
	if got := a.Counters().FaultDrops.Load(); got != drops {
		t.Error("send to reopened peer was still discarded")
	}
	// Reopening an already-open peer is a no-op.
	net.ReopenPeer(peer)
	if got := a.Counters().PeersRecovered.Load(); got != 1 {
		t.Errorf("PeersRecovered after double reopen = %d, want 1", got)
	}
}

func TestMemnetMsgwaitTimeout(t *testing.T) {
	net, a, b := newPairNet(t)
	h := a.Irecv(pinnedSpec(comm.Addr{PE: 1, Proc: 0}), make([]byte, 8))
	err := a.MsgwaitTimeout(h, a.Host().Now().Add(20*sim.Millisecond))
	if !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("MsgwaitTimeout = %v, want ErrTimeout", err)
	}
	if h.Status() != comm.StatusTimedOut {
		t.Errorf("status = %v, want %v", h.Status(), comm.StatusTimedOut)
	}
	if got := a.Counters().RecvTimeouts.Load(); got != 1 {
		t.Errorf("RecvTimeouts = %d, want 1", got)
	}
	// A message that already arrived still wins over peer death: buffered
	// data outlives its sender.
	b.Send(comm.Addr{PE: 0, Proc: 0}, 0, 3, 0, []byte("last words"))
	net.ClosePeer(comm.Addr{PE: 1, Proc: 0})
	buf := make([]byte, 16)
	h2 := a.Irecv(pinnedSpec(comm.Addr{PE: 1, Proc: 0}), buf)
	if err := a.MsgwaitTimeout(h2, a.Host().Now().Add(sim.Second)); err != nil {
		t.Fatalf("buffered message lost to peer death: %v", err)
	}
	if string(buf[:h2.Len()]) != "last words" {
		t.Errorf("got %q", buf[:h2.Len()])
	}
}

// TestMemnetRouteTableRace sends through both delivery entry points while
// another goroutine closes and reopens the destination and a late endpoint
// registers, all against the published route snapshots: every message either
// reaches the destination or is counted as a fault drop, exactly once, and
// nothing panics.
func TestMemnetRouteTableRace(t *testing.T) {
	net, a, b := newPairNet(t)
	const senders, perSender, flaps, posted = 4, 500, 200, 256
	hdr := comm.Header{SrcPE: a.Addr().PE, SrcProc: a.Addr().Proc, DstPE: b.Addr().PE, DstProc: b.Addr().Proc, Tag: 1, Size: 4}
	data := []byte("ping")
	// Receives posted up front give TryDeliverDirect something to match.
	var handles []*comm.RecvHandle
	for i := 0; i < posted; i++ {
		handles = append(handles, b.Irecv(comm.MatchAll, make([]byte, 4)))
	}

	// Every goroutine yields after each step, as Endpoint.Send relaxes after
	// each send, so the three kinds interleave even at one P.
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if !net.TryDeliverDirect(hdr, data) {
					msg := comm.GetPooledMessage(len(data))
					copy(msg.Data, data)
					msg.Hdr = hdr
					net.Deliver(msg)
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < flaps; i++ {
			net.ClosePeer(b.Addr())
			runtime.Gosched()
			net.ReopenPeer(b.Addr())
			runtime.Gosched()
		}
	}()
	late := comm.Addr{PE: 2, Proc: 0}
	var lateEP *comm.Endpoint
	go func() {
		defer wg.Done()
		lateEP = net.NewEndpoint(late, machine.NewRealHost(machine.Modern()), &trace.Counters{})
	}()
	wg.Wait()

	_, unexpected := b.QueueDepths() // drains the ring into the mailbox
	delivered := unexpected
	for _, h := range handles {
		if h.Done() {
			delivered++
		}
	}
	drops := a.Counters().FaultDrops.Load()
	if sent := uint64(senders * perSender); uint64(delivered)+drops != sent {
		t.Errorf("sent %d, delivered %d + fault drops %d = %d", sent, delivered, drops, uint64(delivered)+drops)
	}
	if d, r := a.Counters().PeersDead.Load(), a.Counters().PeersRecovered.Load(); d != flaps || r != flaps {
		t.Errorf("PeersDead %d, PeersRecovered %d; want %d each", d, r, flaps)
	}
	if net.Endpoint(late) != lateEP || net.Endpoint(b.Addr()) != b || a.PeerDead(b.Addr()) {
		t.Error("route table lost an endpoint or a reopen")
	}
}

func TestMemnetEndpointLookup(t *testing.T) {
	net := New()
	model := machine.Modern()
	ep := net.NewEndpoint(comm.Addr{PE: 2, Proc: 3}, machine.NewRealHost(model), &trace.Counters{})
	if net.Endpoint(comm.Addr{PE: 2, Proc: 3}) != ep {
		t.Fatal("lookup failed")
	}
	if net.Endpoint(comm.Addr{PE: 0, Proc: 0}) != nil {
		t.Fatal("lookup of unregistered address returned an endpoint")
	}
}
