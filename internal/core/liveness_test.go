package core

import (
	"encoding/binary"
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
// machine.Host.Relax (a missed poll, the Scheduler-polls (PS) wait's offer
// before it parks, a no-switch yield) or park, or the PE it waits for runs
// only when the Go runtime preempts the spinner, 10 ms at a time. A send
// does not relax: a one-way sender hands off where it next waits. Every
// case below needs hundreds of hand-offs, so a spin site that lost its
// yield is a 5 s timeout here, not a hang.

const livenessBound = 5 * time.Second

// runOneP runs a 2-PE real-mode machine at GOMAXPROCS(1), fails the test
// if it has not finished within livenessBound, and returns its result.
func runOneP(t *testing.T, cfg Config, handler Handler, m0, m1 MainFunc) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := NewRealRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Modern())
	if handler != nil {
		rt.RegisterHandler(1, handler)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1) // the run may outlive a timed-out test
	go func() {
		res, err := rt.Run(map[comm.Addr]MainFunc{{PE: 0, Proc: 0}: m0, {PE: 1, Proc: 0}: m1})
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(livenessBound):
		t.Fatalf("not finished after %v at one P: some waiting loop no longer yields the processor", livenessBound)
	}
	return nil
}

var livenessPolicies = []PolicyKind{ThreadPolls, SchedulerPollsPS, SchedulerPollsWQ}

// In the plain ping-pong each side sends and then waits for the echo, and
// the wait hands the processor to the peer after the echo's receive is
// posted. With a yield between receive and reply the peer runs first,
// finds nothing and has to wait in its policy's loop every round: that
// variant is the one that needs the loops live.
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

// One PE floods the other: 4,096 × 4 KiB sends with no credit window and
// no wait in between, so at one P the sender keeps the processor for the
// whole burst (sends do not relax) and the arrivals pile up in the
// receiver's unexpected queue. Unbounded, the receiver still gets every
// message in the sender's order. With the queue capped at 64 entries the
// overflow is dropped, and every drop is counted: sent = received +
// UnexpectedDropped, exactly. The flood runs from the coordinator PE: its
// termination handshake is not retried (Config.TermGrace is off), so a done
// message meeting a full queue would be dropped like any other arrival.
func TestOnePLivenessFlood(t *testing.T) {
	const msgs, size = 4096, 4 << 10
	for _, maxUnexpected := range []int{0, 64} {
		t.Run(fmt.Sprintf("MaxUnexpected=%d", maxUnexpected), func(t *testing.T) {
			var finished atomic.Bool // every Send has returned: memnet has deposited, queued or dropped each message
			received := 0
			res := runOneP(t, Config{Policy: SchedulerPollsPS, MaxUnexpected: maxUnexpected}, nil,
				func(th *Thread) {
					buf := make([]byte, size)
					for i := 0; i < msgs; i++ {
						binary.LittleEndian.PutUint32(buf, uint32(i))
						if err := th.Send(gid(1, 0, 0), 1, buf); err != nil {
							t.Errorf("send %d: %v", i, err)
							break
						}
					}
					finished.Store(true)
				},
				func(th *Thread) {
					buf := make([]byte, size)
					next := uint32(0) // the lowest sequence number still to come
					for {
						h, err := th.Irecv(gid(0, 0, 0), 1, buf)
						if err != nil {
							t.Error(err)
							return
						}
						if maxUnexpected == 0 {
							th.Msgwait(h)
						} else {
							// Some of the flood may have been dropped, so a
							// blocking wait could outlast it: poll until the
							// message is in or the sender is done.
							done := th.Msgtest(h)
							for !done && !finished.Load() {
								done = th.Msgtest(h)
							}
							if !done && !th.Msgtest(h) {
								th.Process().Endpoint().CancelRecv(h)
								return
							}
						}
						if n := h.Len(); n != size {
							t.Errorf("message %d: %d bytes, want %d", received, n, size)
							return
						}
						// Drops may leave gaps in a capped run, never an
						// older message after a newer one.
						seq := binary.LittleEndian.Uint32(buf)
						if seq < next || maxUnexpected == 0 && seq != next {
							t.Errorf("message %d: sequence %d, want %d: out of FIFO order", received, seq, next)
							return
						}
						next = seq + 1
						received++
						if maxUnexpected == 0 && received == msgs {
							return
						}
					}
				})
			dropped := int(res.Total.UnexpectedDropped)
			t.Logf("received %d, dropped %d of %d", received, dropped, msgs)
			if received+dropped != msgs {
				t.Errorf("received %d + dropped %d = %d, want %d sent", received, dropped, received+dropped, msgs)
			}
			if maxUnexpected == 0 && dropped != 0 {
				t.Errorf("%d dropped with an unbounded queue", dropped)
			}
		})
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

// runOnePTCP is runOneP over two in-process tcpnet nodes on 127.0.0.1: the
// only wake-up source of a waiting PE is a tcpnet reader goroutine, which
// runs when the netpoller finds its socket ready, and at one P the
// netpoller is consulted only when the P has nothing else to run. A waiting
// PE that stays on Go's run queue — spinning, or yielding at every missed
// poll — keeps it from ever being consulted.
func runOnePTCP(t *testing.T, cfg Config, m0, m1 MainFunc) {
	t.Helper()
	mustRun(t, runTCP(t, 1, cfg, nil, m0, m1))
}

// The ping-pong of TestOnePLivenessPingPong between two tcpnet nodes, under
// the policies whose waiting PE parks once every thread has missed:
// Scheduler polls (PS) at the end of a fruitless pass, and (WQ) when every
// thread is blocked. Thread polls is absent: its threads test themselves, so
// the scheduler never sees a fruitless pass, and the waiting PE yields
// forever on Go's run queue (DESIGN.md "Processor sharing").
func TestOnePLivenessTCP(t *testing.T) {
	const rounds = 2000
	for _, pol := range []PolicyKind{SchedulerPollsPS, SchedulerPollsWQ} {
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
				runOnePTCP(t, Config{Policy: pol}, echo(gid(1, 0, 0), true), echo(gid(0, 0, 0), false))
			})
		}
	}
}
