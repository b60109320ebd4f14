package tcpnet

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chant/internal/comm"
)

// connsOf reports the connections node n files under each key of its
// connection table.
func connsOf(n *Node) map[comm.Addr][]*sender {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[comm.Addr][]*sender, len(n.conns))
	for a, cs := range n.conns {
		out[a] = append([]*sender(nil), cs...)
	}
	return out
}

// waitFor polls cond until it holds or d passes.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// After a ping-pong each node holds exactly one connection, filed under its
// peer: the ponger adopted the connection the pinger dialed and answered on
// it.
func TestTCPOneConnectionPerPeer(t *testing.T) {
	nodes, eps := bootMachine(t, 2)
	const rounds = 100
	p0, p1 := comm.Addr{PE: 0, Proc: 0}, comm.Addr{PE: 1, Proc: 0}
	echoed := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			n, _, err := eps[1].Recv(comm.MatchAll, buf)
			if err != nil {
				echoed <- err
				return
			}
			eps[1].Send(p0, 0, 2, 0, buf[:n])
		}
		echoed <- nil
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			eps[0].Send(p1, 0, 1, 0, []byte("ping"))
			if _, _, err := eps[0].Recv(comm.MatchAll, buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("ping-pong timed out")
	}
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	for i, peer := range []comm.Addr{p1, p0} {
		table := connsOf(nodes[i])
		if len(table) != 1 || len(table[peer]) != 1 {
			t.Errorf("node %d connection table %v; want one connection, filed under %v", i, table, peer)
		}
	}
	if connsOf(nodes[0])[p1][0].c.LocalAddr().String() != connsOf(nodes[1])[p0][0].c.RemoteAddr().String() {
		t.Error("the two nodes send on different connections")
	}
}

// Both nodes send first at the same moment, so each may dial before it has
// read the other's first frame. Every frame must arrive, in per-direction
// FIFO order, and neither node may hold more than the two connections that
// race can make. Run it with -race -count=20.
func TestTCPBothSendFirst(t *testing.T) {
	nodes, eps := bootMachine(t, 2)
	const k = 500
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range eps {
		other := comm.Addr{PE: int32(1 - i), Proc: 0}
		wg.Add(2)
		go func() { // sender
			defer wg.Done()
			<-start
			var b [4]byte
			for j := 0; j < k; j++ {
				binary.LittleEndian.PutUint32(b[:], uint32(j))
				eps[i].Send(other, 0, 1, 0, b[:])
			}
		}()
		go func() { // receiver
			defer wg.Done()
			buf := make([]byte, 4)
			for j := 0; j < k; j++ {
				if _, _, err := eps[i].Recv(comm.MatchAll, buf); err != nil {
					t.Errorf("node %d frame %d: %v", i, j, err)
					return
				}
				if got := binary.LittleEndian.Uint32(buf); got != uint32(j) {
					t.Errorf("node %d: frame %d arrived as number %d", i, j, got)
					return
				}
			}
		}()
	}
	close(start)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out: a frame was lost")
	}
	for i, n := range nodes {
		peer := comm.Addr{PE: int32(1 - i), Proc: 0}
		table := connsOf(n)
		if len(table) != 1 || len(table[peer]) == 0 || len(table[peer]) > 2 {
			t.Errorf("node %d connection table %v; want one or two connections, all filed under %v", i, table, peer)
		}
	}
}

// TestTCPKilledConnectionRedials closes the one shared connection from the
// test side in the middle of a ping-pong stream, on 20 fresh machines,
// alternating which node's end is closed. A frame written before its writer
// learns that the socket died is lost, so the pinger resends a round's ping
// after a timeout, as the RSR retry layer resends a Call; the ponger echoes
// every ping. Every round must complete over a redialed connection, or its
// receive must fail with StatusPeerDead; nothing may hang, and the closed
// connection must leave both tables.
func TestTCPKilledConnectionRedials(t *testing.T) {
	for it := 0; it < 20; it++ {
		killMidStream(t, it%2)
	}
}

// waitAtMost parks on h until it completes or d passes, then fails it with
// a timeout if it is still posted, and reports whether it took a message.
func waitAtMost(ep *comm.Endpoint, h *comm.RecvHandle, d time.Duration) bool {
	timer := time.AfterFunc(d, func() {
		if ep.TimeoutRecv(h) {
			ep.Host().Interrupt() // the failure does not wake Wait itself
		}
	})
	ep.Wait(h)
	timer.Stop()
	return h.Err() == nil
}

func killMidStream(t *testing.T, side int) {
	nodes, eps := bootMachine(t, 2)
	const (
		killAt = 100 // rounds before the kill, at least
		after  = 100 // rounds after it
		resend = 50 * time.Millisecond
	)
	p0, p1 := comm.Addr{PE: 0, Proc: 0}, comm.Addr{PE: 1, Proc: 0}
	var completed, last, resends atomic.Int32
	last.Store(math.MaxInt32) // the pinger's final round, set at the kill
	var peerDead atomic.Bool
	stop := make(chan struct{})

	ponged := make(chan struct{})
	go func() { // ponger: echo every ping until stopped
		defer close(ponged)
		buf := make([]byte, 4)
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := eps[1].Irecv(comm.MatchAll, buf)
			if waitAtMost(eps[1], h, 10*time.Millisecond) {
				eps[1].Send(p0, 0, 2, 0, buf[:h.Len()])
			}
		}
	}()

	pinged := make(chan struct{})
	go func() { // pinger: one numbered ping per round, resent on a timeout
		defer close(pinged)
		ping, buf := make([]byte, 4), make([]byte, 4)
		spec := comm.MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: comm.Any, Ctx: comm.Any, Tag: 2}
		for i := 0; i < int(last.Load()); {
			binary.LittleEndian.PutUint32(ping, uint32(i))
			eps[0].Send(p1, 0, 1, 0, ping)
			sent := time.Now()
			for {
				h := eps[0].Irecv(spec, buf)
				if !waitAtMost(eps[0], h, resend-time.Since(sent)) {
					if h.Status() == comm.StatusTimedOut {
						resends.Add(1)
						break // the ping or its pong was lost: resend
					}
					if h.Status() != comm.StatusPeerDead {
						t.Errorf("round %d: %v", i, h.Err())
					}
					peerDead.Store(true)
					return
				}
				if binary.LittleEndian.Uint32(buf) == uint32(i) {
					i++
					completed.Store(int32(i))
					break
				}
				// The pong of an earlier resend: keep waiting for this one.
			}
		}
	}()

	if !waitFor(20*time.Second, func() bool { return completed.Load() >= killAt || peerDead.Load() }) {
		t.Fatal("the stream never reached the kill point")
	}
	peers := [2]comm.Addr{p1, p0}
	before := connsOf(nodes[side])[peers[side]]
	if len(before) != 1 {
		t.Fatalf("node %d holds %d connections to its peer before the kill; want the one shared connection", side, len(before))
	}
	killed := before[0]
	killed.c.Close()
	last.Store(completed.Load() + after)

	select {
	case <-pinged:
	case <-time.After(30 * time.Second):
		t.Fatalf("stream hung after the kill at round %d", completed.Load())
	}
	close(stop)
	<-ponged
	if peerDead.Load() {
		return // the receive failed with StatusPeerDead: allowed, not a hang
	}
	if got, want := completed.Load(), last.Load(); got < want {
		t.Fatalf("completed %d of %d rounds", got, want)
	}
	t.Logf("node %d's end closed at round %d; %d resends", side, last.Load()-after, resends.Load())
	// Either node's end of the closed connection: its address pair, one
	// way round or the other.
	ends := func(c *sender) [2]string { return [2]string{c.c.LocalAddr().String(), c.c.RemoteAddr().String()} }
	k := ends(killed)
	for i, n := range nodes {
		closed := func() bool {
			for _, c := range connsOf(n)[peers[i]] {
				if e := ends(c); e == k || e == [2]string{k[1], k[0]} {
					return false
				}
			}
			return true
		}
		if !waitFor(10*time.Second, closed) {
			t.Errorf("node %d still files the closed connection", i)
		}
	}
	if len(connsOf(nodes[0])[p1]) == 0 {
		t.Error("node 0 finished the stream with no connection to its peer: the sends after the kill did not redial")
	}
}

// When a connection's reader ends, the connection leaves the table at once,
// with no write to find it dead: one node closes its end of the shared
// connection, the other's reader sees EOF, and its next send redials, so
// that send is not written into the dead socket and lost.
func TestTCPReaderEndUnfilesConnection(t *testing.T) {
	nodes, eps := bootMachine(t, 2)
	p0, p1 := comm.Addr{PE: 0, Proc: 0}, comm.Addr{PE: 1, Proc: 0}
	buf := make([]byte, 8)
	recvWithin := func(ep *comm.Endpoint) error {
		got := make(chan error, 1)
		go func() { _, _, err := ep.Recv(comm.MatchAll, buf); got <- err }()
		select {
		case err := <-got:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("the send after the close never arrived")
			return nil
		}
	}
	eps[0].Send(p1, 0, 1, 0, []byte("before"))
	if err := recvWithin(eps[1]); err != nil {
		t.Fatal(err)
	}
	shared := connsOf(nodes[1])[p0]
	if len(shared) != 1 {
		t.Fatalf("node 1 holds %d connections to node 0; want the one it accepted", len(shared))
	}
	shared[0].c.Close()
	if !waitFor(10*time.Second, func() bool { return len(connsOf(nodes[0])) == 0 }) {
		t.Fatalf("node 0 still files the connection node 1 closed: %v", connsOf(nodes[0]))
	}
	eps[0].Send(p1, 0, 1, 0, []byte("after"))
	if err := recvWithin(eps[1]); err != nil {
		t.Fatal(err)
	}
}
