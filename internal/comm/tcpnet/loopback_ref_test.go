package tcpnet

import (
	"io"
	"iter"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkPlainLoopbackRoundTrip is the transport-free reference for
// tcpnet's connection layout and receive path: a 64-byte echo between two
// goroutine "nodes" over 127.0.0.1, with no Chant code. "two-conns" is one
// connection per direction, each written by its dialer and read by the
// other side: every data segment is answered by a pure ACK on its own
// connection. "one-conn" is one connection read and written by both sides:
// the reply carries the request's ACK. Both hand each frame from a reader
// goroutine to the node over a channel. The other cases keep one connection
// and vary only how a frame reaches the node:
//
//   - parked: the reader wakes a node parked on a sticky latch and then a
//     condition variable, a wake-up through the Go scheduler per frame;
//   - coroutine: the reader switches into the idle node's iter.Pull
//     coroutine and gets its goroutine back when the node idles again, as a
//     tcpnet reader runs an idle PE (Host.Lend);
//   - read: the node blocks in conn.Read itself, the floor.
//
// Reports the p50 and mean round trip:
//
//	go test -run '^$' -bench PlainLoopback -benchtime 50000x -count 3 -cpu 1,2 ./internal/comm/tcpnet
func BenchmarkPlainLoopbackRoundTrip(b *testing.B) {
	for _, c := range []struct {
		name   string
		shared bool
		shape  receiveShape
	}{
		{"two-conns", false, viaChannel},
		{"one-conn", true, viaChannel},
		{"one-conn-parked", true, viaParked},
		{"one-conn-coroutine", true, viaCoroutine},
		{"one-conn-read", true, viaRead},
	} {
		b.Run(c.name, func(b *testing.B) { loopbackRoundTrips(b, c.shared, c.shape) })
	}
}

// A receiveShape hands each size-byte frame read from c to handle, in the
// node's own context, until handle returns false or c fails. It is called
// on the node's goroutine and returns when the node is done.
type receiveShape func(c net.Conn, size int, handle func(frame []byte) bool)

// readFrames reads size-byte frames off c and passes each to got, then nil
// once c fails.
func readFrames(c net.Conn, size int, got func([]byte)) {
	for {
		buf := make([]byte, size)
		if _, err := io.ReadFull(c, buf); err != nil {
			got(nil)
			return
		}
		got(buf)
	}
}

func viaRead(c net.Conn, size int, handle func([]byte) bool) {
	buf := make([]byte, size)
	for {
		if _, err := io.ReadFull(c, buf); err != nil || !handle(buf) {
			return
		}
	}
}

func viaChannel(c net.Conn, size int, handle func([]byte) bool) {
	ch := make(chan []byte, 1)
	go readFrames(c, size, func(b []byte) { ch <- b })
	for b := range ch {
		if b == nil || !handle(b) {
			return
		}
	}
}

// parkedNode is a one-frame mailbox whose taker parks the way a RealHost's
// home goroutine does: a lock-free sticky latch, and a condition variable
// when the latch is clear.
type parkedNode struct {
	mu    sync.Mutex
	cond  *sync.Cond
	latch atomic.Bool
	frame []byte // written before the latch is set, read after it is seen
}

func (p *parkedNode) put(b []byte) {
	p.frame = b
	if p.latch.Swap(true) {
		return
	}
	p.mu.Lock()
	p.cond.Signal()
	p.mu.Unlock()
}

func (p *parkedNode) take() []byte {
	if !p.latch.Load() {
		p.mu.Lock()
		for !p.latch.Load() {
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
	p.latch.Store(false)
	return p.frame
}

func viaParked(c net.Conn, size int, handle func([]byte) bool) {
	p := &parkedNode{}
	p.cond = sync.NewCond(&p.mu)
	go readFrames(c, size, p.put)
	for {
		if b := p.take(); b == nil || !handle(b) {
			return
		}
	}
}

// viaCoroutine runs the node as a coroutine that idles between frames. The
// reader resumes it with each frame, once whoever it last switched back to
// has marked it idle, so two goroutines never resume it at once.
func viaCoroutine(c net.Conn, size int, handle func([]byte) bool) {
	const (
		running = iota
		idle
		finished
	)
	var frame []byte
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		for yield(struct{}{}) && frame != nil && handle(frame) {
		}
	})
	var state atomic.Int32
	done := make(chan struct{})
	next()
	state.Store(idle)
	go readFrames(c, size, func(b []byte) {
		for !state.CompareAndSwap(idle, running) {
			if state.Load() == finished {
				return
			}
			runtime.Gosched()
		}
		frame = b
		if _, more := next(); more {
			state.Store(idle)
			return
		}
		state.Store(finished)
		close(done)
	})
	<-done
}

func loopbackRoundTrips(b *testing.B, shared bool, shape receiveShape) {
	const size = 64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	dial := func() (net.Conn, net.Conn) { // dialer's end, acceptor's end
		d, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		a, err := ln.Accept()
		if err != nil {
			b.Fatal(err)
		}
		return d, a
	}
	// ping is node 0 → node 1, pong node 1 → node 0; each pair is
	// (writer's end, reader's end).
	pingW, pingR := dial()
	pongW, pongR := pingR, pingW
	if !shared {
		pongW, pongR = dial()
	}
	defer pingW.Close()
	defer pingR.Close()
	defer pongW.Close()
	defer pongR.Close()

	go shape(pingR, size, func(m []byte) bool { // node 1: echo every ping
		_, err := pongW.Write(m)
		return err == nil
	})

	msg := make([]byte, size)
	rtts := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	start := time.Now()
	if _, err := pingW.Write(msg); err != nil {
		b.Fatal(err)
	}
	shape(pongR, size, func([]byte) bool { // node 0: time the echo, send the next ping
		rtts = append(rtts, time.Since(start))
		if len(rtts) == b.N {
			return false
		}
		start = time.Now()
		_, err := pingW.Write(msg)
		return err == nil
	})
	b.StopTimer()
	if len(rtts) < b.N {
		b.Fatalf("%d of %d echoes came back", len(rtts), b.N)
	}
	var sum time.Duration
	for _, d := range rtts {
		sum += d
	}
	slices.Sort(rtts)
	b.ReportMetric(float64(rtts[len(rtts)/2].Nanoseconds())/1e3, "p50-us")
	b.ReportMetric(float64(sum.Nanoseconds())/1e3/float64(len(rtts)), "mean-us")
}
