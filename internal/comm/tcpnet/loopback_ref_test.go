package tcpnet

import (
	"io"
	"net"
	"slices"
	"testing"
	"time"
)

// BenchmarkPlainLoopbackRoundTrip is the transport-free reference for
// tcpnet's connection layout: a 64-byte echo between two goroutine "nodes"
// over 127.0.0.1, with a reader goroutine per read end handing each frame to
// the node's main goroutine, which writes the reply. "two-conns" is one
// connection per direction, each written by its dialer and read by the
// other side: every data segment is answered by a pure ACK on its own
// connection. "one-conn" is one connection read and written by both sides:
// the reply carries the request's ACK. Reports the p50 round trip:
//
//	go test -run '^$' -bench PlainLoopback -benchtime 50000x -count 3 ./internal/comm/tcpnet
func BenchmarkPlainLoopbackRoundTrip(b *testing.B) {
	for _, shared := range []bool{true, false} {
		name := "two-conns"
		if shared {
			name = "one-conn"
		}
		b.Run(name, func(b *testing.B) { loopbackRoundTrips(b, shared) })
	}
}

func loopbackRoundTrips(b *testing.B, shared bool) {
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

	reader := func(c net.Conn, out chan<- []byte) {
		defer close(out)
		for {
			buf := make([]byte, size)
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			out <- buf
		}
	}
	atPong, atPing := make(chan []byte, 1), make(chan []byte, 1)
	go reader(pingR, atPong)
	go reader(pongR, atPing)
	go func() { // node 1: echo every ping
		for m := range atPong {
			if _, err := pongW.Write(m); err != nil {
				return
			}
		}
	}()

	msg := make([]byte, size)
	rtts := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := pingW.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, ok := <-atPing; !ok {
			b.Fatal("echo lost")
		}
		rtts = append(rtts, time.Since(start))
	}
	b.StopTimer()
	slices.Sort(rtts)
	b.ReportMetric(float64(rtts[len(rtts)/2].Nanoseconds())/1e3, "p50-us")
}
