package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/ult"
)

// allPolicies and allDeliveries drive the cross-product tests: every paper
// polling algorithm against every delivery design.
var allPolicies = []PolicyKind{ThreadPolls, SchedulerPollsPS, SchedulerPollsWQ, SchedulerPollsWQAny}
var allDeliveries = []DeliveryMode{DeliverCtx, DeliverTagPack, DeliverBody}

// runSim2 runs mains on a 2-PE simulated machine and fails the test on
// runtime error.
func runSim2(t *testing.T, cfg Config, main0, main1 MainFunc) *Result {
	t.Helper()
	rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Paragon1994())
	res, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: main0,
		{PE: 1, Proc: 0}: main1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func gid(pe, proc, thread int32) GlobalID { return GlobalID{PE: pe, Proc: proc, Thread: thread} }

func TestP2PAcrossPoliciesAndModes(t *testing.T) {
	for _, pol := range allPolicies {
		for _, mode := range allDeliveries {
			pol, mode := pol, mode
			t.Run(fmt.Sprintf("%v/%v", pol, mode), func(t *testing.T) {
				cfg := Config{Policy: pol, Delivery: mode, DisableServer: true}
				got := ""
				runSim2(t, cfg,
					func(th *Thread) {
						if err := th.Send(gid(1, 0, 0), 7, []byte("hello chant")); err != nil {
							t.Error(err)
						}
						buf := make([]byte, 64)
						n, from, err := th.Recv(gid(1, 0, 0), 8, buf)
						if err != nil {
							t.Error(err)
						}
						if from != gid(1, 0, 0) {
							t.Errorf("reply from %v", from)
						}
						got = string(buf[:n])
					},
					func(th *Thread) {
						buf := make([]byte, 64)
						n, from, err := th.Recv(gid(0, 0, 0), 7, buf)
						if err != nil || string(buf[:n]) != "hello chant" {
							t.Errorf("recv: n=%d err=%v", n, err)
						}
						if from != gid(0, 0, 0) {
							t.Errorf("message from %v", from)
						}
						if err := th.Send(gid(0, 0, 0), 8, []byte("echo:"+string(buf[:n]))); err != nil {
							t.Error(err)
						}
					},
				)
				if got != "echo:hello chant" {
					t.Fatalf("round trip got %q", got)
				}
			})
		}
	}
}

func TestManyThreadsExchange(t *testing.T) {
	for _, pol := range allPolicies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{Policy: pol, Delivery: DeliverCtx, DisableServer: true}
			const workers = 6
			received := make([]int, workers)
			mkMain := func(pe int32, record bool) MainFunc {
				return func(th *Thread) {
					var locals []*Thread
					for w := 0; w < workers; w++ {
						w := w
						lt := th.proc.CreateLocal(fmt.Sprintf("w%d", w), func(me *Thread) {
							peer := gid(1-pe, 0, me.ID().Thread)
							payload := []byte{byte(w)}
							for iter := 0; iter < 5; iter++ {
								if err := me.Send(peer, 3, payload); err != nil {
									t.Error(err)
									return
								}
								buf := make([]byte, 4)
								n, _, err := me.Recv(peer, 3, buf)
								if err != nil || n != 1 {
									t.Errorf("recv: n=%d err=%v", n, err)
									return
								}
								if record {
									received[w]++
								}
							}
						}, defaultSpawn())
						locals = append(locals, lt)
					}
					for _, lt := range locals {
						if _, err := th.JoinLocal(lt); err != nil {
							t.Error(err)
						}
					}
				}
			}
			runSim2(t, cfg, mkMain(0, true), mkMain(1, false))
			for w, n := range received {
				if n != 5 {
					t.Fatalf("worker %d exchanged %d of 5", w, n)
				}
			}
		})
	}
}

func defaultSpawn() ult.SpawnOpts { return ult.SpawnOpts{} }

func TestSourceThreadSelectivityCtxMode(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsPS, Delivery: DeliverCtx, DisableServer: true}
	runSim2(t, cfg,
		func(th *Thread) {
			// Two sender threads on pe0; receiver selects by source thread.
			a := th.proc.CreateLocal("a", func(me *Thread) {
				me.Send(gid(1, 0, 0), 5, []byte("from-a"))
			}, defaultSpawn())
			b := th.proc.CreateLocal("b", func(me *Thread) {
				me.Send(gid(1, 0, 0), 5, []byte("from-b"))
			}, defaultSpawn())
			th.JoinLocal(a)
			th.JoinLocal(b)
		},
		func(th *Thread) {
			// Request b's message first even though a's likely arrives first.
			buf := make([]byte, 16)
			// Thread ids: main=0, server absent, so a=1, b=2 on pe0.
			n, from, err := th.Recv(gid(0, 0, 2), 5, buf)
			if err != nil || string(buf[:n]) != "from-b" {
				t.Errorf("selective recv got %q (from %v, err %v)", buf[:n], from, err)
			}
			n, _, err = th.Recv(gid(0, 0, 1), 5, buf)
			if err != nil || string(buf[:n]) != "from-a" {
				t.Errorf("second recv got %q (err %v)", buf[:n], err)
			}
		},
	)
}

func TestTagWildcardRejectedInTagPack(t *testing.T) {
	cfg := Config{Policy: ThreadPolls, Delivery: DeliverTagPack, DisableServer: true}
	runSim2(t, cfg,
		func(th *Thread) {
			if _, err := th.Irecv(AnyThread, AnyField, make([]byte, 8)); !errors.Is(err, ErrBadTag) {
				t.Errorf("tag wildcard in tagpack mode: err = %v, want ErrBadTag", err)
			}
		},
		nil,
	)
}

func TestBadUserTagRejected(t *testing.T) {
	cfg := Config{Policy: ThreadPolls, Delivery: DeliverCtx, DisableServer: true}
	runSim2(t, cfg,
		func(th *Thread) {
			if err := th.Send(gid(1, 0, 0), TagReserved, []byte("x")); !errors.Is(err, ErrBadTag) {
				t.Errorf("reserved tag: err = %v", err)
			}
			if err := th.Send(gid(1, 0, 0), -3, []byte("x")); !errors.Is(err, ErrBadTag) {
				t.Errorf("negative tag: err = %v", err)
			}
			if err := th.Send(gid(9, 9, 0), 1, []byte("x")); !errors.Is(err, ErrBadTarget) {
				t.Errorf("bad target: err = %v", err)
			}
		},
		nil,
	)
}

func TestIrecvMsgtestMsgwait(t *testing.T) {
	cfg := Config{Policy: ThreadPolls, Delivery: DeliverCtx, DisableServer: true}
	runSim2(t, cfg,
		func(th *Thread) {
			buf := make([]byte, 16)
			h, err := th.Irecv(gid(1, 0, 0), 2, buf)
			if err != nil {
				t.Fatal(err)
			}
			if th.Msgtest(h) {
				t.Error("msgtest true before any send")
			}
			th.Send(gid(1, 0, 0), 1, []byte("go"))
			th.Msgwait(h)
			if !h.Done() || string(buf[:h.Len()]) != "pong" {
				t.Errorf("after msgwait: %q", buf[:h.Len()])
			}
			// msgtest on completed handle is true.
			if !th.Msgtest(h) {
				t.Error("msgtest false after completion")
			}
		},
		func(th *Thread) {
			buf := make([]byte, 16)
			th.Recv(gid(0, 0, 0), 1, buf)
			th.Send(gid(0, 0, 0), 2, []byte("pong"))
		},
	)
}

func TestRSRPingAndUserHandler(t *testing.T) {
	for _, pol := range allPolicies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{Policy: pol, Delivery: DeliverCtx}
			runSim2(t, cfg,
				func(th *Thread) {
					if err := th.Ping(comm.Addr{PE: 1, Proc: 0}); err != nil {
						t.Errorf("ping: %v", err)
					}
					var reply [32]byte
					n, err := th.Call(comm.Addr{PE: 1, Proc: 0}, 1, []byte("abc"), reply[:])
					if err != nil {
						t.Errorf("call: %v", err)
					} else if string(reply[:n]) != "ABC!" {
						t.Errorf("call reply %q", reply[:n])
					}
					if _, err := th.Call(comm.Addr{PE: 1, Proc: 0}, 99, nil, reply[:]); !errors.Is(err, ErrRemote) {
						t.Errorf("unknown handler err = %v", err)
					}
				},
				func(th *Thread) {
					th.proc.RegisterHandler(1, func(ctx *RSRContext) ([]byte, error) {
						return append(bytes.ToUpper(ctx.Req), '!'), nil
					})
					// Serve until released by the termination handshake.
				},
			)
		})
	}
}

func TestRSRNotify(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsPS, Delivery: DeliverCtx}
	got := 0
	runSim2(t, cfg,
		func(th *Thread) {
			for i := 0; i < 3; i++ {
				if err := th.Notify(comm.Addr{PE: 1, Proc: 0}, 2, []byte{byte(i)}); err != nil {
					t.Error(err)
				}
			}
			// Give the notifications time to be served before release.
			var reply [8]byte
			if _, err := th.Call(comm.Addr{PE: 1, Proc: 0}, 3, nil, reply[:]); err != nil {
				t.Error(err)
			}
			if reply[0] != 3 {
				t.Errorf("served %d notifications, want 3", reply[0])
			}
		},
		func(th *Thread) {
			th.proc.RegisterHandler(2, func(ctx *RSRContext) ([]byte, error) {
				got++
				return nil, nil
			})
			th.proc.RegisterHandler(3, func(ctx *RSRContext) ([]byte, error) {
				return []byte{byte(got)}, nil
			})
		},
	)
}

func TestRemoteCreateJoin(t *testing.T) {
	for _, pol := range allPolicies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1},
				Config{Policy: pol, Delivery: DeliverCtx}, machine.Paragon1994())
			rt.Register("double", func(th *Thread, arg []byte) {
				out := make([]byte, len(arg))
				for i, b := range arg {
					out[i] = b * 2
				}
				th.Exit(out)
			})
			_, err := rt.Run(map[comm.Addr]MainFunc{
				{PE: 0, Proc: 0}: func(th *Thread) {
					remote, err := th.Create(1, 0, "double", []byte{1, 2, 3}, CreateOpts{})
					if err != nil {
						t.Errorf("create: %v", err)
						return
					}
					if remote.PE != 1 || remote.Proc != 0 {
						t.Errorf("remote id %v", remote)
					}
					v, err := th.Join(remote)
					if err != nil {
						t.Errorf("join: %v", err)
						return
					}
					if got, ok := v.([]byte); !ok || !bytes.Equal(got, []byte{2, 4, 6}) {
						t.Errorf("join value %v", v)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLocalCreateViaGlobalAPI(t *testing.T) {
	rt := NewSimRuntime(Topology{PEs: 1, ProcsPerPE: 1},
		Config{Policy: ThreadPolls, Delivery: DeliverCtx}, machine.Paragon1994())
	rt.Register("answer", func(th *Thread, arg []byte) { th.Exit(int64(42)) })
	_, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			local, err := th.Create(0, 0, "answer", nil, CreateOpts{})
			if err != nil {
				t.Errorf("local create: %v", err)
				return
			}
			v, err := th.Join(local)
			if err != nil || v != int64(42) {
				t.Errorf("join = (%v, %v)", v, err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateUnknownFunc(t *testing.T) {
	cfg := Config{Policy: ThreadPolls, Delivery: DeliverCtx}
	runSim2(t, cfg,
		func(th *Thread) {
			if _, err := th.Create(1, 0, "nope", nil, CreateOpts{}); err == nil {
				t.Error("create of unregistered function succeeded")
			}
		},
		nil,
	)
}

func TestRemoteCancel(t *testing.T) {
	rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1},
		Config{Policy: SchedulerPollsWQ, Delivery: DeliverCtx}, machine.Paragon1994())
	rt.Register("waiter", func(th *Thread, arg []byte) {
		// Blocks forever on a message that never comes; must die by cancel.
		buf := make([]byte, 8)
		th.Recv(AnyThread, 9, buf)
		th.Exit("finished") // unreachable
	})
	_, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			remote, err := th.Create(1, 0, "waiter", nil, CreateOpts{})
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if err := th.Cancel(remote); err != nil {
				t.Errorf("cancel: %v", err)
			}
			if _, err := th.Join(remote); err == nil {
				t.Error("join of canceled thread reported success")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemoteDetach(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsPS, Delivery: DeliverCtx}
	rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Paragon1994())
	rt.Register("quick", func(th *Thread, arg []byte) {})
	_, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			remote, err := th.Create(1, 0, "quick", nil, CreateOpts{})
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if err := th.DetachGlobal(remote); err != nil {
				// The thread may already have finished; both outcomes are
				// acceptable for a detach race, but an unknown-thread error
				// is the only legitimate failure.
				if !errors.Is(err, ErrRemote) {
					t.Errorf("detach: %v", err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCancelThreadBlockedInRecv(t *testing.T) {
	for _, pol := range allPolicies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{Policy: pol, Delivery: DeliverCtx, DisableServer: true}
			runSim2(t, cfg,
				func(th *Thread) {
					victim := th.proc.CreateLocal("victim", func(me *Thread) {
						buf := make([]byte, 8)
						me.Recv(AnyThread, 4, buf) // never satisfied
					}, defaultSpawn())
					th.Yield() // let the victim block
					th.CancelLocal(victim)
					if _, err := th.JoinLocal(victim); err == nil {
						t.Error("join of canceled receiver succeeded")
					}
					// The endpoint must not retain the canceled posted recv.
					posted, _ := th.proc.Endpoint().QueueDepths()
					if posted != 0 {
						t.Errorf("%d receives still posted after cancel", posted)
					}
				},
				nil,
			)
			if pol != SchedulerPollsWQ && pol != SchedulerPollsWQAny {
				return
			}
			// A WQ thread whose receive completed at a scheduling point is
			// canceled while Ready, before it resumes: its cancel hook must
			// leave alone the entry the walk already freed, which a second
			// waiter then reuses.
			t.Run("completed-then-canceled", func(t *testing.T) {
				cfg := Config{Policy: pol, Delivery: DeliverCtx, DisableServer: true}
				runSim2(t, cfg,
					func(th *Thread) {
						recv := func(me *Thread) {
							buf := make([]byte, 8)
							if _, _, err := me.Recv(th.ID(), 5, buf); err != nil {
								t.Error(err)
							}
						}
						victim := th.proc.CreateLocal("victim", recv, defaultSpawn())
						th.Yield()              // the victim blocks in its receive
						th.TCB().SetPriority(1) // outrank the victim once it is readied
						if err := th.Send(victim.ID(), 5, []byte("x")); err != nil {
							t.Error(err)
							return
						}
						for victim.TCB().State() != ult.Ready {
							th.Yield() // a scheduling point: the walk completes the victim's entry
						}
						th.CancelLocal(victim)
						if n := th.proc.policy.(*wqPolicy).count; n != 0 {
							t.Errorf("%d requests outstanding after the cancel, want 0", n)
							return
						}
						th.TCB().SetPriority(0)
						second := th.proc.CreateLocal("second", recv, defaultSpawn())
						th.Yield() // the victim unwinds; the second blocks on the freed entry
						if err := th.Send(second.ID(), 5, []byte("y")); err != nil {
							t.Error(err)
							return
						}
						if _, err := th.JoinLocal(second); err != nil {
							t.Errorf("join of the second receiver: %v", err)
						}
						if _, err := th.JoinLocal(victim); err == nil {
							t.Error("join of canceled receiver succeeded")
						}
						if posted, _ := th.proc.Endpoint().QueueDepths(); posted != 0 {
							t.Errorf("%d receives still posted", posted)
						}
					},
					nil,
				)
			})
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		cfg := Config{Policy: SchedulerPollsWQ, Delivery: DeliverCtx, DisableServer: true}
		res := runSim2(t, cfg,
			func(th *Thread) {
				for i := 0; i < 20; i++ {
					th.Send(gid(1, 0, 0), 1, make([]byte, 256))
					buf := make([]byte, 256)
					th.Recv(gid(1, 0, 0), 1, buf)
				}
			},
			func(th *Thread) {
				buf := make([]byte, 256)
				for i := 0; i < 20; i++ {
					th.Recv(gid(0, 0, 0), 1, buf)
					th.Send(gid(0, 0, 0), 1, make([]byte, 256))
				}
			},
		)
		return res.Total.MsgTestCalls, res.Total.FullSwitches
	}
	m1, s1 := run()
	m2, s2 := run()
	if m1 != m2 || s1 != s2 {
		t.Fatalf("nondeterministic counters: (%d,%d) vs (%d,%d)", m1, s1, m2, s2)
	}
}

func TestRealRuntimeSmoke(t *testing.T) {
	for _, pol := range []PolicyKind{ThreadPolls, SchedulerPollsPS, SchedulerPollsWQ} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			rt := NewRealRuntime(Topology{PEs: 2, ProcsPerPE: 1},
				Config{Policy: pol, Delivery: DeliverCtx}, machine.Modern())
			rt.Register("echoer", func(th *Thread, arg []byte) {
				buf := make([]byte, 64)
				n, from, err := th.Recv(AnyThread, 1, buf)
				if err == nil {
					th.Send(from, 2, buf[:n])
				}
			})
			_, err := rt.Run(map[comm.Addr]MainFunc{
				{PE: 0, Proc: 0}: func(th *Thread) {
					remote, err := th.Create(1, 0, "echoer", nil, CreateOpts{})
					if err != nil {
						t.Errorf("create: %v", err)
						return
					}
					th.Send(remote, 1, []byte("real mode"))
					buf := make([]byte, 64)
					n, _, err := th.Recv(remote, 2, buf)
					if err != nil || string(buf[:n]) != "real mode" {
						t.Errorf("echo: %q err=%v", buf[:n], err)
					}
					if _, err := th.Join(remote); err != nil {
						t.Errorf("join: %v", err)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWaitingThreadsCounted(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsWQ, Delivery: DeliverCtx, DisableServer: true}
	res := runSim2(t, cfg,
		func(th *Thread) {
			buf := make([]byte, 8)
			th.Recv(gid(1, 0, 0), 1, buf) // waits ~10ms of virtual time
		},
		func(th *Thread) {
			th.proc.Endpoint().Host().Charge(10_000_000) // 10ms head start
			th.Send(gid(0, 0, 0), 1, []byte("x"))
		},
	)
	if res.Total.MaxWaiting < 1 {
		t.Fatal("no waiting thread recorded")
	}
	if res.Total.AvgWaiting <= 0 {
		t.Fatal("zero average waiting threads despite a long wait")
	}
}

func TestPolicyCountShapes(t *testing.T) {
	// The qualitative count relationships the paper reports: WQ performs
	// far more msgtests than PS; WQ performs the fewest full switches of
	// the scheduler-driven policies; TP performs the most switches.
	counts := map[PolicyKind](*Result){}
	for _, pol := range []PolicyKind{ThreadPolls, SchedulerPollsPS, SchedulerPollsWQ} {
		cfg := Config{Policy: pol, Delivery: DeliverCtx, DisableServer: true}
		mk := func(pe int32) MainFunc {
			return func(th *Thread) {
				const workers = 6
				var ws []*Thread
				for w := 0; w < workers; w++ {
					w := w
					ws = append(ws, th.proc.CreateLocal("w", func(me *Thread) {
						// Shifted pairing de-synchronizes the queues, as in
						// the experiments package's Table-3 workload.
						sendTo := gid(1-pe, 0, (int32(w)+1)%workers+1)
						recvFrom := gid(1-pe, 0, (int32(w)+workers-1)%workers+1)
						buf := make([]byte, 4096)
						out := make([]byte, 4096)
						for i := 0; i < 25; i++ {
							me.proc.ep.Host().Compute(1000)
							me.Send(sendTo, 1, out)
							me.proc.ep.Host().Compute(100)
							me.Recv(recvFrom, 1, buf)
						}
					}, defaultSpawn()))
				}
				for _, w := range ws {
					th.JoinLocal(w)
				}
			}
		}
		counts[pol] = runSim2(t, cfg, mk(0), mk(1))
	}
	tp, ps, wq := counts[ThreadPolls].Total, counts[SchedulerPollsPS].Total, counts[SchedulerPollsWQ].Total
	if wq.MsgTestCalls <= 2*ps.MsgTestCalls {
		t.Errorf("WQ msgtests (%d) not clearly above PS (%d)", wq.MsgTestCalls, ps.MsgTestCalls)
	}
	if tp.FullSwitches <= wq.FullSwitches {
		t.Errorf("TP full switches (%d) not above WQ (%d)", tp.FullSwitches, wq.FullSwitches)
	}
	if ps.PartialSwitches == 0 {
		t.Error("PS recorded no partial switches")
	}
	// The paper's Table-3 shapes at full experiment scale are asserted by
	// the experiments package; this is a smoke-level sanity check.
}
