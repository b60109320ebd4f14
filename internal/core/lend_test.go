package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"chant/internal/check"
	"chant/internal/comm"
	"chant/internal/comm/tcpnet"
	"chant/internal/comm/tcpnet/tcpnettest"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
	"chant/internal/ult"
)

// bootTCP starts two tcpnet nodes in this process, joined at a rendezvous
// on 127.0.0.1 (tweak, if non-nil, adjusts both nodes' options), and closes
// them when the test ends.
func bootTCP(t testing.TB, tweak func(o *tcpnet.Options)) []*tcpnet.Node {
	t.Helper()
	return tcpnettest.Boot(t, 2, func(rendezvous string, i int) (*tcpnet.Node, error) {
		o := tcpnet.Options{Self: comm.Addr{PE: int32(i)}, Rendezvous: rendezvous, Lead: i == 0, Procs: 2}
		if tweak != nil {
			tweak(&o)
		}
		return tcpnet.Bootstrap(o)
	})
}

// tcpPE is one process of a runTCP machine and how its RunOne ended.
type tcpPE struct {
	node *tcpnet.Node
	ep   *comm.Endpoint
	host *machine.RealHost
	snap trace.Snapshot
	err  error
	pan  any // what RunOne panicked with
}

// runTCP runs m0 and m1 as the two processes of a machine over two tcpnet
// nodes in this process, at GOMAXPROCS(procs) (0 leaves it), and fails the
// test if they have not both finished within livenessBound.
func runTCP(t *testing.T, procs int, cfg Config, tweak func(o *tcpnet.Options), m0, m1 MainFunc) [2]*tcpPE {
	t.Helper()
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	nodes := bootTCP(t, tweak)
	mains := [2]MainFunc{m0, m1}
	var pes [2]*tcpPE
	done := make(chan struct{}, 2) // the runs may outlive a timed-out test
	for i := range pes {
		self := comm.Addr{PE: int32(i)}
		pe := &tcpPE{node: nodes[i], host: machine.NewRealHost(machine.Modern())}
		pe.ep = nodes[i].NewEndpoint(self, pe.host, &trace.Counters{})
		pes[i] = pe
		go func() {
			defer func() {
				pe.pan = recover()
				done <- struct{}{}
			}()
			rt := NewDistRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Modern())
			pe.snap, pe.err = rt.RunOne(self, pe.ep, mains[i])
		}()
	}
	deadline := time.After(livenessBound)
	for range pes {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("not finished after %v at %d P over tcpnet", livenessBound, runtime.GOMAXPROCS(0))
		}
	}
	return pes
}

// mustRun fails the test on any error or panic out of runTCP's processes.
func mustRun(t *testing.T, pes [2]*tcpPE) {
	t.Helper()
	for i, pe := range pes {
		if pe.err != nil || pe.pan != nil {
			t.Fatalf("pe%d: err %v, panic %v", i, pe.err, pe.pan)
		}
	}
}

// A frame that completes the receive of an idle PE runs the receiving
// thread on the tcpnet reader that delivered it (Host.Lend): the PE's home
// goroutine is never woken. PE 0 pauses before each ping, so PE 1 has
// parked by the time it arrives. The echo PE counts its own resumptions
// after a warm-up, which keeps one-time set-up (the server thread's first
// turn, a first dial) out of the count.
func TestLendRunsReceiverOnReader(t *testing.T) {
	const warm, rounds = 10, 60
	for _, pol := range []PolicyKind{SchedulerPollsPS, SchedulerPollsWQ} {
		t.Run(pol.String(), func(t *testing.T) {
			ping := func(th *Thread) {
				buf := make([]byte, 64)
				for i := 0; i < rounds; i++ {
					time.Sleep(time.Millisecond)
					if err := th.Send(gid(1, 0, 0), 1, buf); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := th.Recv(gid(1, 0, 0), 1, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
			var home, lent [2]uint64
			echo := func(th *Thread) {
				host := th.proc.ep.Host().(*machine.RealHost)
				buf := make([]byte, 64)
				for i := 0; i < rounds; i++ {
					if i == warm {
						home[0], lent[0] = host.Wakeups()
					}
					if _, _, err := th.Recv(gid(0, 0, 0), 1, buf); err != nil {
						t.Error(err)
						return
					}
					if err := th.Send(gid(0, 0, 0), 1, buf); err != nil {
						t.Error(err)
						return
					}
				}
				home[1], lent[1] = host.Wakeups()
			}
			mustRun(t, runTCP(t, 0, Config{Policy: pol}, nil, ping, echo))
			woken, ran := home[1]-home[0], lent[1]-lent[0]
			t.Logf("over %d rounds the echo PE was woken %d times at home, run %d times by a reader", rounds-warm, woken, ran)
			if woken != 0 || ran != rounds-warm {
				t.Fatalf("echo PE woken %d times at home and run %d times by a reader over %d rounds; want 0 and %d", woken, ran, rounds-warm, rounds-warm)
			}
		})
	}
}

// tcpEcho is the ping-pong of TestOnePLivenessTCP: with lag, a yield
// between receive and reply makes the peer wait in its policy's loop. If
// times is non-nil, each round's time is appended to it.
func tcpEcho(t *testing.T, rounds int, lag bool, peer GlobalID, first bool, times *[]time.Duration) MainFunc {
	return func(th *Thread) {
		buf := make([]byte, 64)
		if first {
			th.Send(peer, 1, buf)
		}
		last := time.Now()
		for i := 0; i < rounds; i++ {
			if _, _, err := th.Recv(peer, 1, buf); err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
			if lag {
				th.Yield()
			}
			if times != nil {
				now := time.Now()
				*times = append(*times, now.Sub(last))
				last = now
			}
			if !first || i < rounds-1 {
				th.Send(peer, 1, buf)
			}
		}
	}
}

// roundP50 reports the median of a ping-pong's per-round times.
func roundP50(rounds []time.Duration) time.Duration {
	slices.Sort(rounds)
	return rounds[len(rounds)/2]
}

// pollBound is the median round a polling ping-pong over tcpnet must beat:
// a lend held until the stand-in reader takes over (standInAfter, 1 ms)
// would cost about that much per round. An unlent round at two Ps takes
// ~50 µs, and a few hundred under -race.
const pollBound = time.Millisecond

// Thread polls over tcpnet at two Ps, plain and lagged, finishes within
// livenessBound, and its median round stays below pollBound. Its waiters
// test themselves and yield instead of parking, so a PE that a reader ran
// would keep that reader unless the lend ended at the next thread turn.
func TestLendBoundedUnderTP(t *testing.T) {
	if check.Enabled {
		// Two PEs that spin on Gosched keep Go's global run queue busy, and
		// a reader runs only when the netpoller is consulted: with
		// chantdebug's per-switch owner checks that is sysmon's 10 ms poll,
		// so the run takes minutes, with or without lending.
		t.Skip("Thread polls over tcpnet waits on sysmon's netpoll under chantdebug")
	}
	const rounds = 2000
	for _, lag := range []bool{false, true} {
		t.Run(fmt.Sprintf("lag=%v", lag), func(t *testing.T) {
			times := make([]time.Duration, 0, rounds)
			mustRun(t, runTCP(t, 2, Config{Policy: ThreadPolls}, nil,
				tcpEcho(t, rounds, lag, gid(1, 0, 0), true, &times), tcpEcho(t, rounds, lag, gid(0, 0, 0), false, nil)))
			if p50 := roundP50(times); p50 > pollBound {
				t.Fatalf("median round %v, want under %v", p50, pollBound)
			}
		})
	}
}

// A woken thread that polls for its next message with Msgtest and Yield,
// instead of parking, under Scheduler polls (PS and WQ) at two Ps. Each
// round the echo PE parks for a ping, so a reader runs it, and the woken
// thread then polls for a second ping that the same reader must deliver:
// the lend has to end at the poll loop's yield, not when a stand-in takes
// the connection over: stand-ins stay rare (a lend that waits for one
// makes its round last 1-2 ms), and the median round stays below
// pollBound.
func TestLendPollLoopGoesHome(t *testing.T) {
	const rounds = 500
	for _, pol := range []PolicyKind{SchedulerPollsPS, SchedulerPollsWQ} {
		t.Run(pol.String(), func(t *testing.T) {
			times := make([]time.Duration, 0, rounds)
			var home, lent uint64
			ping := func(th *Thread) {
				buf := make([]byte, 64)
				for i := 0; i < rounds; i++ {
					start := time.Now()
					for k := 0; k < 2; k++ {
						if err := th.Send(gid(1, 0, 0), 1, buf); err != nil {
							t.Error(err)
							return
						}
						if _, _, err := th.Recv(gid(1, 0, 0), 1, buf); err != nil {
							t.Error(err)
							return
						}
					}
					times = append(times, time.Since(start))
				}
			}
			echo := func(th *Thread) {
				buf := make([]byte, 64)
				for i := 0; i < rounds; i++ {
					if _, _, err := th.Recv(gid(0, 0, 0), 1, buf); err != nil {
						t.Error(err)
						return
					}
					if err := th.Send(gid(0, 0, 0), 1, buf); err != nil {
						t.Error(err)
						return
					}
					h, err := th.Irecv(gid(0, 0, 0), 1, buf)
					if err != nil {
						t.Error(err)
						return
					}
					for !th.Msgtest(h) {
						th.Yield()
					}
					th.Process().Endpoint().ReleaseHandle(h)
					if err := th.Send(gid(0, 0, 0), 1, buf); err != nil {
						t.Error(err)
						return
					}
				}
				home, lent = th.proc.ep.Host().(*machine.RealHost).Wakeups()
			}
			pes := runTCP(t, 2, Config{Policy: pol}, nil, ping, echo)
			mustRun(t, pes)
			p50 := roundP50(times)
			t.Logf("median round %v; echo PE woken %d times at home, run %d times by a reader; %d stand-in readers",
				p50, home, lent, pes[1].node.StandIns())
			if lent == 0 {
				t.Fatal("the echo PE was never run by a reader")
			}
			if standIns := pes[1].node.StandIns(); standIns*10 > lent {
				t.Fatalf("%d of %d lends waited for a stand-in reader", standIns, lent)
			}
			// Under chantdebug a poll loop on home waits on the netpoller
			// much as Thread polls does (see TestLendBoundedUnderTP): its
			// median round reads 0.1-0.4 ms alone, lending or not, and
			// passes 1 ms beside other packages' tests. Only the plain
			// build is timed.
			if p50 > pollBound && !check.Enabled {
				t.Fatalf("median round %v, want under %v", p50, pollBound)
			}
		})
	}
}

// With failure detection on, a thread woken on a reader that then works for
// three detection windows — Compute, plain Go work, or time.Sleep — must
// not get its peer declared dead: a stand-in reader takes the connection
// over and goes on reading heartbeats.
func TestLentWorkKeepsPeerAlive(t *testing.T) {
	const hb = 50 * time.Millisecond
	window := hb * 3 // tcpnet declares a peer dead after three silent intervals
	var sink uint64
	for _, tc := range []struct {
		name string
		work func(th *Thread, d time.Duration)
	}{
		{"Compute", func(th *Thread, d time.Duration) {
			for start := time.Now(); time.Since(start) < d; {
				th.proc.ep.Host().Compute(10000)
			}
		}},
		{"GoWork", func(th *Thread, d time.Duration) {
			for start := time.Now(); time.Since(start) < d; {
				for i := uint64(0); i < 10000; i++ {
					sink = sink*31 + i
				}
			}
		}},
		{"Sleep", func(th *Thread, d time.Duration) { time.Sleep(d) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pes := runTCP(t, 0, Config{Policy: SchedulerPollsPS}, func(o *tcpnet.Options) { o.Heartbeat = hb },
				func(th *Thread) {
					buf := make([]byte, 8)
					time.Sleep(5 * time.Millisecond) // PE 1 parks
					if err := th.Send(gid(1, 0, 0), 1, buf); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := th.Recv(gid(1, 0, 0), 1, buf); err != nil {
						t.Error(err)
					}
				},
				func(th *Thread) {
					buf := make([]byte, 8)
					if _, _, err := th.Recv(gid(0, 0, 0), 1, buf); err != nil {
						t.Error(err)
						return
					}
					tc.work(th, 3*window)
					if err := th.Send(gid(0, 0, 0), 1, buf); err != nil {
						t.Error(err)
					}
				})
			mustRun(t, pes)
			if _, lent := pes[1].host.Wakeups(); lent == 0 {
				t.Fatal("the working PE was never run by a reader")
			}
			if pes[1].node.StandIns() == 0 {
				t.Fatal("no stand-in reader took over from the lent reader")
			}
			for i, pe := range pes {
				if dead := pe.snap.PeersDead; dead != 0 {
					t.Fatalf("pe%d declared %d peers dead", i, dead)
				}
			}
		})
	}
}

// A thread that panics while its PE runs on a reader: the panic surfaces
// from RunOne with its own value, the reader goes on, and once both nodes
// are closed no goroutine is left.
func TestLentPanicSurfacesFromRunOne(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := Config{Policy: SchedulerPollsPS, TermGrace: 20 * sim.Millisecond}
	pes := runTCP(t, 0, cfg, nil,
		func(th *Thread) {
			time.Sleep(5 * time.Millisecond) // PE 1 parks
			if err := th.Send(gid(1, 0, 0), 1, nil); err != nil {
				t.Error(err)
			}
		},
		func(th *Thread) {
			if _, _, err := th.Recv(gid(0, 0, 0), 1, nil); err != nil {
				t.Error(err)
				return
			}
			panic("boom while lent")
		})
	if pes[0].err != nil || pes[0].pan != nil {
		t.Fatalf("pe0: err %v, panic %v", pes[0].err, pes[0].pan)
	}
	pe, ok := pes[1].pan.(*ult.PanicError)
	if !ok || pe.Value != "boom while lent" {
		t.Fatalf("pe1's RunOne panicked with %#v, want a *ult.PanicError carrying %q", pes[1].pan, "boom while lent")
	}
	if _, lent := pes[1].host.Wakeups(); lent == 0 {
		t.Fatal("the panicking PE was never run by a reader")
	}
	pes[0].node.Close()
	pes[1].node.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
