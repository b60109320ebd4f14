package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/trace"
)

// freeRendezvous picks an ephemeral rendezvous address by binding and
// immediately releasing a port. (A race with other processes is possible
// in principle; these tests run alone in CI.)
func freeRendezvous(t testing.TB) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// bootMachine starts procs nodes joined at one rendezvous, with one
// endpoint each, and returns them with a cleanup.
func bootMachine(t testing.TB, procs int) ([]*Node, []*comm.Endpoint) {
	t.Helper()
	rendezvous := freeRendezvous(t)
	nodes := make([]*Node, procs)
	eps := make([]*comm.Endpoint, procs)
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for i := 0; i < procs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := Bootstrap(Options{
				Self:       comm.Addr{PE: int32(i), Proc: 0},
				Rendezvous: rendezvous,
				Lead:       i == 0,
				Procs:      procs,
			})
			if err != nil {
				errs[i] = err
				return
			}
			nodes[i] = n
			eps[i] = n.NewEndpoint(comm.Addr{PE: int32(i), Proc: 0},
				machine.NewRealHost(machine.Modern()), &trace.Counters{})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d bootstrap: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	})
	return nodes, eps
}

func TestBootstrapDiscoversAllPeers(t *testing.T) {
	nodes, _ := bootMachine(t, 3)
	for i, n := range nodes {
		if got := len(n.Peers()); got != 3 {
			t.Errorf("node %d sees %d peers, want 3", i, got)
		}
	}
}

func TestSendRecvOverTCP(t *testing.T) {
	_, eps := bootMachine(t, 2)
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 64)
		n, hdr, err := eps[1].Recv(comm.MatchAll, buf)
		if err != nil {
			t.Error(err)
		}
		done <- fmt.Sprintf("%s tag=%d src=%d", buf[:n], hdr.Tag, hdr.SrcPE)
	}()
	eps[0].Send(comm.Addr{PE: 1, Proc: 0}, 5, 9, 2, []byte("across the wire"))
	select {
	case got := <-done:
		if got != "across the wire tag=9 src=0" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out")
	}
}

func TestTCPNonOvertaking(t *testing.T) {
	_, eps := bootMachine(t, 2)
	const n = 200
	done := make(chan bool, 1)
	go func() {
		buf := make([]byte, 4)
		for i := 0; i < n; i++ {
			eps[1].Recv(comm.MatchAll, buf)
			if int(buf[0]) != i%256 {
				t.Errorf("message %d arrived out of order (got %d)", i, buf[0])
				done <- false
				return
			}
		}
		done <- true
	}()
	for i := 0; i < n; i++ {
		eps[0].Send(comm.Addr{PE: 1, Proc: 0}, 0, 1, 0, []byte{byte(i % 256)})
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("timed out")
	}
}

func TestTCPLargeMessage(t *testing.T) {
	_, eps := bootMachine(t, 2)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	done := make(chan bool, 1)
	go func() {
		buf := make([]byte, len(payload))
		n, _, err := eps[1].Recv(comm.MatchAll, buf)
		if err != nil || n != len(payload) {
			t.Errorf("recv n=%d err=%v", n, err)
		}
		for i := range buf {
			if buf[i] != byte(i*31) {
				t.Errorf("payload corrupt at %d", i)
				break
			}
		}
		done <- true
	}()
	eps[0].Send(comm.Addr{PE: 1, Proc: 0}, 0, 1, 0, payload)
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("timed out")
	}
}

func TestTCPBidirectional(t *testing.T) {
	_, eps := bootMachine(t, 2)
	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			eps[0].Send(comm.Addr{PE: 1, Proc: 0}, 0, 1, 0, []byte("ping"))
			eps[0].Recv(comm.MatchAll, buf)
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			eps[1].Recv(comm.MatchAll, buf)
			eps[1].Send(comm.Addr{PE: 0, Proc: 0}, 0, 2, 0, []byte("pong"))
		}
	}()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("ping-pong deadlocked")
	}
}

func TestHeaderWireRoundtrip(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i, j int32) bool {
		hdr := comm.Header{SrcPE: a, SrcProc: b, SrcThread: c, DstPE: d, DstProc: e, Ctx: g, Tag: h, Size: i, Flags: j}
		var buf [wireHeaderLen]byte
		putHeader(buf[:], hdr)
		return getHeader(buf[:]) == hdr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	nodes, _ := bootMachine(t, 2)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSendToUnknownPanics(t *testing.T) {
	_, eps := bootMachine(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("send to process outside the table did not panic")
		}
	}()
	eps[0].Send(comm.Addr{PE: 9, Proc: 9}, 0, 1, 0, []byte("x"))
}

func TestLoopbackThroughNode(t *testing.T) {
	_, eps := bootMachine(t, 2)
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 8)
		eps[0].Recv(comm.MatchAll, buf)
		close(done)
	}()
	eps[0].Send(comm.Addr{PE: 0, Proc: 0}, 0, 1, 0, []byte("self"))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("loopback lost")
	}
}

// bootWithOptions is bootMachine with per-node option tweaks applied on top
// of the defaults.
func bootWithOptions(t *testing.T, procs int, tweak func(o *Options)) ([]*Node, []*comm.Endpoint) {
	t.Helper()
	rendezvous := freeRendezvous(t)
	nodes := make([]*Node, procs)
	eps := make([]*comm.Endpoint, procs)
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for i := 0; i < procs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := Options{
				Self:       comm.Addr{PE: int32(i), Proc: 0},
				Rendezvous: rendezvous,
				Lead:       i == 0,
				Procs:      procs,
			}
			if tweak != nil {
				tweak(&o)
			}
			n, err := Bootstrap(o)
			if err != nil {
				errs[i] = err
				return
			}
			nodes[i] = n
			eps[i] = n.NewEndpoint(comm.Addr{PE: int32(i), Proc: 0},
				machine.NewRealHost(machine.Modern()), &trace.Counters{})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d bootstrap: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	})
	return nodes, eps
}

func TestTCPHeartbeatDetectsKilledPeer(t *testing.T) {
	nodes, eps := bootWithOptions(t, 2, func(o *Options) {
		o.Heartbeat = 25 * time.Millisecond
	})
	peer := comm.Addr{PE: 1, Proc: 0}
	// Post a receive pinned to the peer, then kill it.
	spec := comm.MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: comm.Any, Ctx: comm.Any, Tag: comm.Any}
	h := eps[0].Irecv(spec, make([]byte, 8))
	nodes[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for !nodes[0].PeerDead(peer) {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat failure detector never declared the killed peer dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !eps[0].Test(h) || !errors.Is(h.Err(), comm.ErrPeerDead) {
		t.Fatalf("pinned receive after peer death: done=%v err=%v", h.Done(), h.Err())
	}
	if !eps[0].PeerDead(peer) {
		t.Error("endpoint did not record the dead peer")
	}
	// Sends to the dead peer are now silently discarded, not panics.
	eps[0].Send(peer, 0, 1, 0, []byte("into the void"))
	if got := eps[0].Counters().PeersDead.Load(); got != 1 {
		t.Errorf("PeersDead = %d, want 1", got)
	}
}

func TestTCPHeartbeatKeepsLivePeerAlive(t *testing.T) {
	nodes, _ := bootWithOptions(t, 2, func(o *Options) {
		o.Heartbeat = 20 * time.Millisecond
	})
	// Well past several miss windows, an idle but live peer must not be
	// declared dead — its heartbeats keep it fresh.
	time.Sleep(300 * time.Millisecond)
	if nodes[0].PeerDead(comm.Addr{PE: 1, Proc: 0}) || nodes[1].PeerDead(comm.Addr{PE: 0, Proc: 0}) {
		t.Fatal("live idle peer declared dead")
	}
}

func TestBackoffStateDoublesAndResets(t *testing.T) {
	// Deterministic check of the redial pacing: the pause doubles per
	// failure, saturates at the cap, and reset() — driven by noteAlive when
	// the peer proves alive — drops it back to the initial value. The old
	// behaviour (never resetting) meant one outage throttled a peer forever.
	b := newBackoffState()
	want := redialBackoff0
	for i := 0; i < 12; i++ {
		got := b.next()
		if got != want {
			t.Fatalf("pause %d = %v, want %v", i, got, want)
		}
		if want *= 2; want > redialBackoffM {
			want = redialBackoffM
		}
	}
	if b.cur != redialBackoffM {
		t.Fatalf("backoff did not saturate: %v", b.cur)
	}
	b.reset()
	if got := b.next(); got != redialBackoff0 {
		t.Fatalf("pause after reset = %v, want %v", got, redialBackoff0)
	}
}

func TestNoteAliveResetsBackoff(t *testing.T) {
	nodes, _ := bootMachine(t, 2)
	peer := comm.Addr{PE: 1, Proc: 0}
	// Ratchet the peer's backoff up as a string of failed deliveries would.
	for i := 0; i < 10; i++ {
		nodes[0].nextBackoff(peer)
	}
	nodes[0].mu.Lock()
	ratcheted := nodes[0].backoffs[peer].cur
	nodes[0].mu.Unlock()
	if ratcheted != redialBackoffM {
		t.Fatalf("backoff after 10 failures = %v, want the %v cap", ratcheted, redialBackoffM)
	}
	nodes[0].noteAlive(peer)
	if got := nodes[0].nextBackoff(peer); got != redialBackoff0 {
		t.Fatalf("backoff after the peer proved alive = %v, want %v", got, redialBackoff0)
	}
}

func TestTCPHeartbeatRejoinRevivesDeadPeer(t *testing.T) {
	nodes, eps := bootWithOptions(t, 2, func(o *Options) {
		o.Heartbeat = 20 * time.Millisecond
		if o.Self.PE == 1 {
			o.Epoch = 3 // the "restarted" incarnation
		}
	})
	peer := comm.Addr{PE: 1, Proc: 0}
	// Declare the peer dead locally (a premature or outdated verdict — the
	// peer's process is in fact up and heartbeating).
	nodes[0].markPeerDead(peer)
	if !nodes[0].PeerDead(peer) || !eps[0].PeerDead(peer) {
		t.Fatal("markPeerDead did not take")
	}
	// The peer's next heartbeat is the rejoin signal: the dead mark clears
	// on node and endpoint, and its epoch is recorded.
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].PeerDead(peer) {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat from a live peer never cleared the dead mark")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if eps[0].PeerDead(peer) {
		t.Error("endpoint dead mark survived the rejoin")
	}
	if got := eps[0].Counters().PeersRecovered.Load(); got != 1 {
		t.Errorf("PeersRecovered = %d, want 1", got)
	}
	if got := nodes[0].PeerEpoch(peer); got != 3 {
		t.Errorf("PeerEpoch = %d, want 3", got)
	}
	// Traffic flows again: a pinned receive completes normally.
	done := make(chan error, 1)
	go func() {
		spec := comm.MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: comm.Any, Ctx: comm.Any, Tag: comm.Any}
		h := eps[0].Irecv(spec, make([]byte, 8))
		eps[0].Wait(h)
		done <- h.Err()
	}()
	eps[1].Send(comm.Addr{PE: 0, Proc: 0}, 0, 1, 0, []byte("rejoined"))
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("recv from rejoined peer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("message from rejoined peer never arrived")
	}
}

func TestReadBufSizeClamps(t *testing.T) {
	cases := []struct {
		maxFrame uint32
		want     int
	}{
		{0, minReadBuf},              // degenerate config still gets a sane buffer
		{1024, minReadBuf},           // small frames clamp up to the floor
		{minReadBuf - 4, minReadBuf}, // exactly at the floor after the prefix
		{64 << 10, 64<<10 + 4},       // one maximal frame plus its length prefix
		{64 << 20, maxReadBuf},       // permissive default clamps to the ceiling
		{^uint32(0), maxReadBuf},     // overflow-adjacent input stays clamped
		{maxReadBuf - 4, maxReadBuf}, // largest un-clamped value
		{maxReadBuf - 3, maxReadBuf}, // first value past the ceiling
	}
	for _, c := range cases {
		if got := readBufSize(c.maxFrame); got != c.want {
			t.Errorf("readBufSize(%d) = %d, want %d", c.maxFrame, got, c.want)
		}
	}
}

// TestTCPFrameSizesAroundReadBuffer walks payload sizes straddling the old
// fixed 4 KiB bufio default and the sized read buffer, so both the in-buffer
// zero-copy path (Peek + DeliverFrom) and the straddling pooled
// fallback are exercised, in order, on one connection.
func TestTCPFrameSizesAroundReadBuffer(t *testing.T) {
	_, eps := bootWithOptions(t, 2, func(o *Options) {
		o.MaxFrameSize = 64 << 10
	})
	sizes := []int{1, 4095, 4096, 4097, 8192, 16384, 60 << 10}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64<<10)
		for i, size := range sizes {
			n, hdr, err := eps[1].Recv(comm.MatchAll, buf)
			if err != nil {
				done <- fmt.Errorf("recv %d: %v", i, err)
				return
			}
			if n != size || hdr.Tag != int32(i) {
				done <- fmt.Errorf("message %d: n=%d tag=%d, want n=%d tag=%d", i, n, hdr.Tag, size, i)
				return
			}
			for j := 0; j < n; j++ {
				if buf[j] != byte(j*7+i) {
					done <- fmt.Errorf("message %d corrupt at byte %d", i, j)
					return
				}
			}
		}
		done <- nil
	}()
	for i, size := range sizes {
		payload := make([]byte, size)
		for j := range payload {
			payload[j] = byte(j*7 + i)
		}
		eps[0].Send(comm.Addr{PE: 1, Proc: 0}, 0, int32(i), 0, payload)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("timed out")
	}
}

// TestTCPLargeFrameToPostedReceive pre-posts a receive for a frame larger
// than the old 4 KiB read buffer, the shape the zero-copy Peek path was
// built for, and checks the payload lands intact in the posted buffer.
func TestTCPLargeFrameToPostedReceive(t *testing.T) {
	_, eps := bootWithOptions(t, 2, func(o *Options) {
		o.MaxFrameSize = 128 << 10
	})
	const size = 64 << 10
	buf := make([]byte, size)
	spec := comm.MatchSpec{SrcPE: 0, SrcProc: 0, SrcThread: comm.Any, Ctx: comm.Any, Tag: 42}
	h := eps[1].Irecv(spec, buf)
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	eps[0].Send(comm.Addr{PE: 1, Proc: 0}, 0, 42, 0, payload)
	done := make(chan struct{})
	go func() {
		eps[1].Wait(h)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("posted large receive never completed")
	}
	if h.Err() != nil || h.Len() != size {
		t.Fatalf("len=%d err=%v", h.Len(), h.Err())
	}
	for i := range buf {
		if buf[i] != byte(i*13+5) {
			t.Fatalf("payload corrupt at %d", i)
		}
	}
}

func TestTCPOversizeFramePanics(t *testing.T) {
	_, eps := bootWithOptions(t, 2, func(o *Options) {
		o.MaxFrameSize = 4096
	})
	defer func() {
		if recover() == nil {
			t.Error("oversize send did not panic")
		}
	}()
	eps[0].Send(comm.Addr{PE: 1, Proc: 0}, 0, 1, 0, make([]byte, 8192))
}
