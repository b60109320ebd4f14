package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/ult"
)

// The one-P liveness contract of real mode: with every PE sharing a single
// OS processor, each loop that waits for another PE must keep reaching
// machine.Host.Relax (a send, a missed poll, a no-switch yield), or the PE
// it waits for runs only when the Go runtime preempts the spinner, 10 ms
// at a time. Every case below needs hundreds of hand-offs, so a spin site
// that lost its yield is a 5 s timeout here, not a hang.

const livenessBound = 5 * time.Second

// runOneP runs a 2-PE real-mode machine at GOMAXPROCS(1) and fails the test
// if it has not finished within livenessBound.
func runOneP(t *testing.T, cfg Config, handler Handler, m0, m1 MainFunc) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := NewRealRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Modern())
	if handler != nil {
		rt.RegisterHandler(1, handler)
	}
	done := make(chan error, 1) // the run may outlive a timed-out test
	go func() {
		_, err := rt.Run(map[comm.Addr]MainFunc{{PE: 0, Proc: 0}: m0, {PE: 1, Proc: 0}: m1})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(livenessBound):
		t.Fatalf("not finished after %v at one P: some waiting loop no longer yields the processor", livenessBound)
	}
}

var livenessPolicies = []PolicyKind{ThreadPolls, SchedulerPollsPS, SchedulerPollsWQ}

// In the plain ping-pong the send's own hand-off keeps the PEs in step and
// every receive finds its message waiting. With a yield between receive and
// reply the peer runs first, finds nothing and has to wait in its policy's
// loop every round: that variant is the one that needs the loops live.
func TestOnePLivenessPingPong(t *testing.T) {
	const rounds = 2000
	for _, pol := range livenessPolicies {
		for _, lag := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/lag=%v", pol, lag), func(t *testing.T) {
				echo := func(peer GlobalID, first bool) MainFunc {
					return func(th *Thread) {
						buf := make([]byte, 64)
						if first {
							th.Send(peer, 1, buf)
						}
						for i := 0; i < rounds; i++ {
							if _, _, err := th.Recv(peer, 1, buf); err != nil {
								t.Errorf("round %d: %v", i, err)
								return
							}
							if lag {
								th.Yield()
							}
							if !first || i < rounds-1 {
								th.Send(peer, 1, buf)
							}
						}
					}
				}
				runOneP(t, Config{Policy: pol}, nil, echo(gid(1, 0, 0), true), echo(gid(0, 0, 0), false))
			})
		}
	}
}

// The paper's Figure-9 loop: compute, send to the next worker on the other
// PE, compute, receive from the previous one.
func TestOnePLivenessWaiters(t *testing.T) {
	const workers, iters = 8, 200
	for _, pol := range livenessPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			mk := func(pe int32) MainFunc {
				return func(th *Thread) {
					var ws []*Thread
					for w := int32(0); w < workers; w++ {
						// With no server thread, worker w is thread w+1 on both PEs.
						sendTo := gid(pe^1, 0, (w+1)%workers+1)
						recvFrom := gid(pe^1, 0, (w+workers-1)%workers+1)
						ws = append(ws, th.Process().CreateLocal(fmt.Sprintf("w%d", w), func(me *Thread) {
							host := me.Process().Endpoint().Host()
							buf := make([]byte, 256)
							for i := 0; i < iters; i++ {
								host.Compute(200)
								me.Send(sendTo, 1, buf)
								host.Compute(200)
								if _, _, err := me.Recv(recvFrom, 1, buf); err != nil {
									t.Errorf("pe%d w%d iteration %d: %v", pe, w, i, err)
									return
								}
							}
						}, ult.SpawnOpts{}))
					}
					for _, w := range ws {
						th.JoinLocal(w)
					}
				}
			}
			runOneP(t, Config{Policy: pol, DisableServer: true}, nil, mk(0), mk(1))
		})
	}
}

// A deadline wait must expire on the wall clock while the only other PE
// spins in a yield loop with nothing to switch to: the spinner has to keep
// offering the processor for the waiter's clock checks to run, and the
// waiter's missed tests have to offer it back.
func TestOnePLivenessTimeoutAgainstSpinner(t *testing.T) {
	const waits = 1000
	for _, pol := range livenessPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			var done atomic.Bool
			runOneP(t, Config{Policy: pol, DisableServer: true}, nil,
				func(th *Thread) {
					defer done.Store(true)
					buf := make([]byte, 8)
					for i := 0; i < waits; i++ {
						h, err := th.Irecv(gid(1, 0, 0), 1, buf)
						if err != nil {
							t.Error(err)
							return
						}
						if err := th.MsgwaitTimeout(h, 100*sim.Microsecond); !errors.Is(err, comm.ErrTimeout) {
							t.Errorf("wait %d: %v, want ErrTimeout", i, err)
							return
						}
					}
				},
				func(th *Thread) {
					for !done.Load() {
						th.Yield()
					}
				})
		})
	}
}

// Thread.Call with a timeout polls for its reply instead of blocking in the
// policy; the server thread on the other PE must still get the processor.
func TestOnePLivenessCallWithTimeout(t *testing.T) {
	const calls = 500
	for _, pol := range livenessPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			var done atomic.Bool
			cfg := Config{Policy: pol, RSRTimeout: sim.Second, RSRRetries: 1}
			echo := func(ctx *RSRContext) ([]byte, error) { return ctx.Req, nil }
			runOneP(t, cfg, echo,
				func(th *Thread) {
					defer done.Store(true)
					var reply [8]byte
					for i := 0; i < calls; i++ {
						n, err := th.Call(comm.Addr{PE: 1, Proc: 0}, 1, []byte("ping"), reply[:])
						if err != nil || string(reply[:n]) != "ping" {
							t.Errorf("call %d: %q, %v", i, reply[:n], err)
							return
						}
					}
				},
				func(th *Thread) {
					for !done.Load() {
						th.Yield()
					}
				})
		})
	}
}
