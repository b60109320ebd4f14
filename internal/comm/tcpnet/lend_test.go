package tcpnet

import (
	"fmt"
	"net"
	"testing"
	"time"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/wire"
)

// shrinkSocketBuffers caps both buffers of every connection n holds, so a
// few frames fill them.
func shrinkSocketBuffers(t *testing.T, n *Node, size int) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, cs := range n.conns {
		for _, s := range cs {
			c := s.c.(*net.TCPConn)
			if err := c.SetReadBuffer(size); err != nil {
				t.Fatal(err)
			}
			if err := c.SetWriteBuffer(size); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Two PEs, each entered on its RealHost, flood 64 KiB frames at each other
// with no credit window. Each round both wait for a token that arrives on
// their shared connection at the same moment, so each runs on the reader of
// that connection (Host.Lend) and sends its burst from there. The socket
// buffers hold less than a frame, so every burst waits for the peer's reader
// to drain it. Each lent PE waits in the kernel for the drain while holding
// the one reader that drains its peer: without a stand-in reader the two
// deadlock. Each direction stays FIFO.
func TestLentFloodBothWays(t *testing.T) {
	const rounds, burst, size = 3, 32, 64 << 10
	const tagToken, tagData = 2, 1
	nodes, eps := bootMachine(t, 2)
	hello := make([]byte, 8)
	eps[0].Send(comm.Addr{PE: 1}, 0, tagData, 0, hello)
	if _, _, err := eps[1].Recv(comm.MatchAll, hello); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		shrinkSocketBuffers(t, n, 16<<10)
	}
	token := comm.MatchAll
	token.Tag = tagToken
	data := comm.MatchAll
	data.Tag = tagData
	parked := make(chan struct{}, 2) // a PE is about to wait for its token
	done := make(chan error, 2)
	for i, ep := range eps {
		peer := comm.Addr{PE: int32(1 - i)}
		go func() {
			var err error
			ep.Host().Enter(func(func()) {
				out, in := make([]byte, size), make([]byte, size)
				next := uint32(0)
				for r := 0; r < rounds; r++ {
					parked <- struct{}{}
					if _, _, err = ep.Recv(token, nil); err != nil {
						return
					}
					for k := 0; k < burst; k++ {
						e := wire.NewEncInto(out[:0], 4)
						e.U32(uint32(r*burst + k))
						ep.Send(peer, 0, tagData, 0, out)
					}
					for k := 0; k < burst; k++ {
						n, _, rerr := ep.Recv(data, in)
						if rerr != nil || n != size {
							err = fmt.Errorf("receive %d: %d bytes, %v", next, n, rerr)
							return
						}
						d := wire.NewDec(in[:4])
						if got := d.U32(); got != next {
							err = fmt.Errorf("frame %d arrived in place of %d", got, next)
							return
						}
						next++
					}
				}
			})
			done <- err
		}()
	}
	deadline := time.After(20 * time.Second)
	for r := 0; r < rounds; r++ {
		for range eps {
			select {
			case <-parked:
			case err := <-done:
				t.Fatalf("round %d: %v", r, err)
			case <-deadline:
				t.Fatalf("round %d never began: the flood deadlocked, no stand-in read for a lent PE", r)
			}
		}
		time.Sleep(10 * time.Millisecond) // both park in Recv
		for i, n := range nodes {
			n.mu.Lock()
			s := n.sendingTo(comm.Addr{PE: int32(1 - i)})
			n.mu.Unlock()
			tok := &comm.Message{Hdr: comm.Header{SrcPE: int32(i), DstPE: int32(1 - i), Tag: tagToken}}
			if err := s.writeFrame(tok); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range eps {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("the flood deadlocked: no stand-in read for a lent PE")
		}
	}
	for i, ep := range eps {
		home, lent := ep.Host().(*machine.RealHost).Wakeups()
		t.Logf("pe%d woken %d times at home, run %d times by a reader; %d stand-in readers", i, home, lent, nodes[i].StandIns())
		if lent < rounds {
			t.Errorf("pe%d was run by a reader %d times; want every token, %d", i, lent, rounds)
		}
	}
}
