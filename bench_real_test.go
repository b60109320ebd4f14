package chant

import (
	"fmt"
	"testing"

	"chant/internal/check"
	"chant/internal/comm"
	"chant/internal/core"
	"chant/internal/machine"
	"chant/internal/ult"
)

// Real-mode benchmarks: wall-clock performance of the library itself (as a
// user would feel it), complementing the simulated paper reproductions.
// These run a 2-PE machine on the in-memory transport per iteration batch.

// benchRealMachine runs a 2-PE real-mode machine whose pe0 main executes
// rounds iterations of loop, with pe1 running peer.
func benchRealMachine(b *testing.B, policy core.PolicyKind,
	main0 func(t *core.Thread, rounds int), main1 func(t *core.Thread, rounds int)) {
	b.Helper()
	rt := core.NewRealRuntime(core.Topology{PEs: 2, ProcsPerPE: 1},
		core.Config{Policy: policy, DisableServer: false}, machine.Modern())
	rounds := b.N
	b.ResetTimer()
	_, err := rt.Run(map[comm.Addr]core.MainFunc{
		{PE: 0, Proc: 0}: func(t *core.Thread) { main0(t, rounds) },
		{PE: 1, Proc: 0}: func(t *core.Thread) { main1(t, rounds) },
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRealPingPong measures round-trip latency between two talking
// threads over the in-memory transport, per polling policy.
func BenchmarkRealPingPong(b *testing.B) {
	for _, pol := range []core.PolicyKind{core.ThreadPolls, core.SchedulerPollsPS, core.SchedulerPollsWQ} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			benchRealMachine(b, pol,
				func(t *core.Thread, rounds int) {
					peer := core.GlobalID{PE: 1, Proc: 0, Thread: 0}
					buf := make([]byte, 64)
					out := make([]byte, 64)
					for i := 0; i < rounds; i++ {
						t.Send(peer, 1, out)
						t.Recv(peer, 1, buf)
					}
				},
				func(t *core.Thread, rounds int) {
					peer := core.GlobalID{PE: 0, Proc: 0, Thread: 0}
					buf := make([]byte, 64)
					out := make([]byte, 64)
					for i := 0; i < rounds; i++ {
						t.Recv(peer, 1, buf)
						t.Send(peer, 1, out)
					}
				})
		})
	}
}

// BenchmarkHotPathPingPong is the allocation-focused round-trip benchmark:
// ns/op and allocs/op over the in-memory transport, where the message and
// handle pools should keep the steady state allocation-free on the hot
// path.
func BenchmarkHotPathPingPong(b *testing.B) {
	b.ReportAllocs()
	benchRealMachine(b, core.SchedulerPollsPS,
		func(t *core.Thread, rounds int) {
			peer := core.GlobalID{PE: 1, Proc: 0, Thread: 0}
			buf := make([]byte, 64)
			out := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				t.Send(peer, 1, out)
				t.Recv(peer, 1, buf)
			}
		},
		func(t *core.Thread, rounds int) {
			peer := core.GlobalID{PE: 0, Proc: 0, Thread: 0}
			buf := make([]byte, 64)
			out := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				t.Recv(peer, 1, buf)
				t.Send(peer, 1, out)
			}
		})
}

// benchMultiProducer floods one receiving PE from `senders` peer PEs, with
// credit-window flow control bounding the in-flight backlog. One op is one
// round: the receiver absorbing one message from every sender, through the
// MPSC ingress ring's batched drain under multi-producer contention.
func benchMultiProducer(b *testing.B, senders int) {
	const window = 32
	rt := core.NewRealRuntime(core.Topology{PEs: senders + 1, ProcsPerPE: 1},
		core.Config{Policy: core.SchedulerPollsPS, DisableServer: true}, machine.Modern())
	rounds := b.N
	mains := map[comm.Addr]core.MainFunc{}
	mains[comm.Addr{PE: 0, Proc: 0}] = func(t *core.Thread) {
		for s := 1; s <= senders; s++ {
			t.Send(core.GlobalID{PE: int32(s), Proc: 0, Thread: 0}, 2, []byte{1})
		}
		buf := make([]byte, 16)
		got := make([]int, senders+1)
		for i := 0; i < senders*rounds; i++ {
			_, from, err := t.Recv(core.AnyThread, 1, buf)
			if err != nil {
				b.Error(err)
				return
			}
			got[from.PE]++
			if got[from.PE]%window == 0 {
				t.Send(from, 3, []byte{1})
			}
		}
	}
	for s := 1; s <= senders; s++ {
		s := s
		mains[comm.Addr{PE: int32(s), Proc: 0}] = func(t *core.Thread) {
			recv := core.GlobalID{PE: 0, Proc: 0, Thread: 0}
			ack := make([]byte, 4)
			out := make([]byte, 16)
			if _, _, err := t.Recv(core.AnyThread, 2, ack); err != nil {
				b.Error(err)
				return
			}
			for i := 0; i < rounds; i++ {
				t.Send(recv, 1, out)
				if (i+1)%window == 0 {
					if _, _, err := t.Recv(core.AnyThread, 3, ack); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}
	}
	b.ResetTimer()
	_, err := rt.Run(mains)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRealMultiProducer measures the batched ingress drain while 2 and
// 4 producer PEs flood one receiver.
func BenchmarkRealMultiProducer(b *testing.B) {
	for _, senders := range []int{2, 4} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			benchMultiProducer(b, senders)
		})
	}
}

// BenchmarkRealStreaming measures one-way streaming bandwidth: a single
// sender floods 4 KiB messages at one receiver under a credit window. One
// op is one message; the bytes metric reports the achieved bandwidth.
func BenchmarkRealStreaming(b *testing.B) {
	const window = 32
	const msgSize = 4096
	b.SetBytes(msgSize)
	rt := core.NewRealRuntime(core.Topology{PEs: 2, ProcsPerPE: 1},
		core.Config{Policy: core.SchedulerPollsPS, DisableServer: true}, machine.Modern())
	rounds := b.N
	b.ResetTimer()
	_, err := rt.Run(map[comm.Addr]core.MainFunc{
		{PE: 0, Proc: 0}: func(t *core.Thread) {
			peer := core.GlobalID{PE: 1, Proc: 0, Thread: 0}
			out := make([]byte, msgSize)
			ack := make([]byte, 4)
			for i := 0; i < rounds; i++ {
				t.Send(peer, 1, out)
				if (i+1)%window == 0 {
					t.Recv(peer, 3, ack)
				}
			}
		},
		{PE: 1, Proc: 0}: func(t *core.Thread) {
			peer := core.GlobalID{PE: 0, Proc: 0, Thread: 0}
			buf := make([]byte, msgSize)
			for i := 0; i < rounds; i++ {
				if _, _, err := t.Recv(core.AnyThread, 1, buf); err != nil {
					b.Error(err)
					return
				}
				if (i+1)%window == 0 {
					t.Send(peer, 3, []byte{1})
				}
			}
		},
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// TestHotPathAllocsPinned pins the steady-state allocation count of the
// real-mode ping-pong hot path. The pooled messages, per-thread wait boxes,
// and mailbox bucket freelists hold it at zero; the pin leaves slack only
// for amortized startup. (Before the ring it sat at 8 allocs/op.)
func TestHotPathAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed pin skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for allocation exactness")
	}
	if check.Enabled {
		t.Skip("chantdebug invariant checks are not allocation-audited")
	}
	r := testing.Benchmark(BenchmarkHotPathPingPong)
	if got := r.AllocsPerOp(); got > 2 {
		t.Fatalf("hot-path ping-pong allocates %d allocs/op (%d B/op); pinned at <= 2 (baseline was 8)",
			got, r.AllocedBytesPerOp())
	}
	t.Logf("hot-path ping-pong: %d allocs/op, %d B/op, %d ns/op",
		r.AllocsPerOp(), r.AllocedBytesPerOp(), r.NsPerOp())
}

// TestWQPingPongAllocsPinned holds the Scheduler-polls (WQ) receive path at
// ~0 allocs per round trip. At one P (AllocsPerRun pins it) the echo is back
// before the receive is posted and the thread never reaches a scheduling
// point, so nothing drains the completion ready-list: when such receives
// were listed there, every handle was released with its notification still
// queued and abandoned to the garbage collector, one allocation per receive
// per PE, and the list grew without bound.
func TestWQPingPongAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for allocation exactness")
	}
	if check.Enabled {
		t.Skip("chantdebug invariant checks are not allocation-audited")
	}
	const warm, runs = 200, 2000
	const rounds = warm + 1 + runs // AllocsPerRun calls its function runs+1 times
	var allocs float64
	rt := core.NewRealRuntime(core.Topology{PEs: 2, ProcsPerPE: 1},
		core.Config{Policy: core.SchedulerPollsWQ}, machine.Modern())
	_, err := rt.Run(map[comm.Addr]core.MainFunc{
		{PE: 0, Proc: 0}: func(t *core.Thread) {
			peer := core.GlobalID{PE: 1, Proc: 0, Thread: 0}
			buf := make([]byte, 64)
			out := make([]byte, 64)
			round := func() {
				t.Send(peer, 1, out)
				t.Recv(peer, 1, buf)
			}
			for i := 0; i < warm; i++ {
				round()
			}
			allocs = testing.AllocsPerRun(runs, round)
		},
		{PE: 1, Proc: 0}: func(t *core.Thread) {
			peer := core.GlobalID{PE: 0, Proc: 0, Thread: 0}
			buf := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				t.Recv(peer, 1, buf)
				t.Send(peer, 1, buf)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0.5 {
		t.Fatalf("WQ ping-pong allocates %.2f allocs/op after warm-up; pinned at <= 0.5", allocs)
	}
}

// BenchmarkRealRSR measures remote-procedure-call round trips through the
// server thread.
func BenchmarkRealRSR(b *testing.B) {
	benchRealMachine(b, core.SchedulerPollsPS,
		func(t *core.Thread, rounds int) {
			var reply [16]byte
			for i := 0; i < rounds; i++ {
				if _, err := t.Call(comm.Addr{PE: 1, Proc: 0}, 1, []byte("ping"), reply[:]); err != nil {
					b.Error(err)
					return
				}
			}
		},
		func(t *core.Thread, rounds int) {
			t.Process().RegisterHandler(1, func(ctx *core.RSRContext) ([]byte, error) {
				return ctx.Req, nil
			})
		})
}

// BenchmarkRealSharedRead measures cached shared-variable reads (after the
// first fetch, a read is purely local).
func BenchmarkRealSharedRead(b *testing.B) {
	home := comm.Addr{PE: 0, Proc: 0}
	benchRealMachine(b, core.SchedulerPollsPS,
		func(t *core.Thread, rounds int) {
			v, err := t.Process().NewShared("bench", home, []byte("value"))
			if err != nil {
				b.Error(err)
				return
			}
			buf := make([]byte, 16)
			for i := 0; i < rounds; i++ {
				if _, err := v.Read(t, buf); err != nil {
					b.Error(err)
					return
				}
			}
		},
		func(t *core.Thread, rounds int) {})
}

// BenchmarkRealLocalSendRecv measures same-process thread-to-thread
// messaging (the loopback path).
func BenchmarkRealLocalSendRecv(b *testing.B) {
	rt := core.NewRealRuntime(core.Topology{PEs: 1, ProcsPerPE: 1},
		core.Config{Policy: core.SchedulerPollsPS, DisableServer: true}, machine.Modern())
	rounds := b.N
	b.ResetTimer()
	_, err := rt.Run(map[comm.Addr]core.MainFunc{
		{PE: 0, Proc: 0}: func(t *core.Thread) {
			echo := t.Process().CreateLocal("echo", func(me *core.Thread) {
				buf := make([]byte, 32)
				for i := 0; i < rounds; i++ {
					_, from, err := me.Recv(core.AnyThread, 1, buf)
					if err != nil {
						b.Error(err)
						return
					}
					me.Send(from, 2, buf[:4])
				}
			}, ult.SpawnOpts{})
			buf := make([]byte, 32)
			out := make([]byte, 32)
			for i := 0; i < rounds; i++ {
				t.Send(echo.ID(), 1, out)
				t.Recv(echo.ID(), 2, buf)
			}
			t.JoinLocal(echo)
		},
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}
