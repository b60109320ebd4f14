package memnet

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/trace"
)

func newPair(t *testing.T) (*comm.Endpoint, *comm.Endpoint) {
	t.Helper()
	_, a, b := newPairNet(t)
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

// newPairNet is newPair but also exposing the network.
func newPairNet(t *testing.T) (*Network, *comm.Endpoint, *comm.Endpoint) {
	t.Helper()
	net := New()
	model := machine.Modern()
	a := net.NewEndpoint(comm.Addr{PE: 0, Proc: 0}, machine.NewRealHost(model), &trace.Counters{})
	b := net.NewEndpoint(comm.Addr{PE: 1, Proc: 0}, machine.NewRealHost(model), &trace.Counters{})
	return net, a, b
}

// TestMemnetRouteTableRace sends through both delivery entry points while
// late endpoints register, all against the published route snapshots: every
// message reaches the destination exactly once, no registration is lost,
// and nothing panics.
func TestMemnetRouteTableRace(t *testing.T) {
	net, a, b := newPairNet(t)
	const senders, perSender, lates, posted = 4, 500, 16, 256
	hdr := comm.Header{SrcPE: a.Addr().PE, SrcProc: a.Addr().Proc, DstPE: b.Addr().PE, DstProc: b.Addr().Proc, Tag: 1, Size: 4}
	data := []byte("ping")
	// Receives posted up front give DeliverFrom something to match.
	var handles []*comm.RecvHandle
	for i := 0; i < posted; i++ {
		handles = append(handles, b.Irecv(comm.MatchAll, make([]byte, 4)))
	}

	// Every sender yields after each send, as Endpoint.Send relaxes after
	// each send, so sends and registrations interleave even at one P.
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if !net.DeliverFrom(hdr, data, nil) {
					msg := comm.GetPooledMessage(len(data))
					copy(msg.Data, data)
					msg.Hdr = hdr
					net.Deliver(msg)
				}
				runtime.Gosched()
			}
		}()
	}
	lateEPs := make([]*comm.Endpoint, lates)
	for i := range lateEPs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.Gosched()
			lateEPs[i] = net.NewEndpoint(comm.Addr{PE: int32(2 + i)}, machine.NewRealHost(machine.Modern()), &trace.Counters{})
		}()
	}
	wg.Wait()

	_, unexpected := b.QueueDepths()
	delivered := unexpected
	for _, h := range handles {
		if h.Done() {
			delivered++
		}
	}
	if sent := senders * perSender; delivered != sent {
		t.Errorf("sent %d, delivered %d", sent, delivered)
	}
	rt := *net.routes.Load()
	if len(rt) != 2+lates || rt[a.Addr()] != a || rt[b.Addr()] != b {
		t.Errorf("route table holds %d endpoints, want %d with both originals", len(rt), 2+lates)
	}
	for _, ep := range lateEPs {
		if rt[ep.Addr()] != ep {
			t.Errorf("route table lost late endpoint %v", ep.Addr())
		}
	}
}

// TestMemnetDirectShareCounters pins the counts the benchmark's
// comm.direct_share reads, on a run that mixes sends into posted receives,
// early arrivals, and drops at a capped endpoint: every send is counted
// once, as a direct deposit or as a message, and every message is an early
// arrival or a drop.
func TestMemnetDirectShareCounters(t *testing.T) {
	a, b := newPair(t)
	b.SetUnexpectedCap(4)
	data, buf := []byte("ping"), make([]byte, 4)
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0: // into a posted receive
			h := b.Irecv(comm.MatchSpec{SrcPE: 0, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: 1}, buf)
			a.Send(b.Addr(), 0, 1, 0, data)
			if !h.Done() {
				t.Fatalf("send %d did not complete the posted receive", i)
			}
			b.ReleaseHandle(h)
		case 1: // early at the capped endpoint: 4 queue, the rest drop
			a.Send(b.Addr(), 0, 2, 0, data)
		case 2: // early at the uncapped endpoint
			b.Send(a.Addr(), 0, 3, 0, data)
		}
	}
	var sends, direct, msgs, early, dropped uint64
	for _, ep := range []*comm.Endpoint{a, b} {
		c := ep.Counters()
		_, m, d := ep.IngressStats()
		sends += c.Sends.Load()
		direct += d
		msgs += m
		early += c.EarlyArrivals.Load()
		dropped += c.UnexpectedDropped.Load()
	}
	if direct+msgs != sends {
		t.Errorf("direct %d + messages %d = %d, want Sends %d", direct, msgs, direct+msgs, sends)
	}
	if early+dropped != msgs {
		t.Errorf("EarlyArrivals %d + UnexpectedDropped %d = %d, want messages %d", early, dropped, early+dropped, msgs)
	}
	if direct != 10 || early != 14 || dropped != 6 {
		t.Errorf("direct %d, early %d, dropped %d; want 10, 14, 6", direct, early, dropped)
	}
}
