package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/wire"
)

func TestRSRManyConcurrentCallers(t *testing.T) {
	// Several threads on pe0 issue overlapping Calls to pe1; every reply
	// must route back to exactly its caller (reply tags + Ctx routing).
	cfg := Config{Policy: SchedulerPollsPS}
	const callers = 8
	const callsEach = 10
	runSim2(t, cfg,
		func(th *Thread) {
			var ws []*Thread
			for c := 0; c < callers; c++ {
				c := c
				ws = append(ws, th.proc.CreateLocal(fmt.Sprintf("caller%d", c), func(me *Thread) {
					var reply [8]byte
					for i := 0; i < callsEach; i++ {
						req := []byte{byte(c), byte(i)}
						n, err := me.Call(comm.Addr{PE: 1, Proc: 0}, 1, req, reply[:])
						if err != nil {
							t.Errorf("caller %d call %d: %v", c, i, err)
							return
						}
						if n != 2 || reply[0] != byte(c)+1 || reply[1] != byte(i)+1 {
							t.Errorf("caller %d call %d: got %v", c, i, reply[:n])
							return
						}
					}
				}, defaultSpawn()))
			}
			for _, w := range ws {
				th.JoinLocal(w)
			}
		},
		func(th *Thread) {
			th.proc.RegisterHandler(1, func(ctx *RSRContext) ([]byte, error) {
				return []byte{ctx.Req[0] + 1, ctx.Req[1] + 1}, nil
			})
		},
	)
}

func TestRSRReplyTagWraparound(t *testing.T) {
	// Force the per-process request counter past the reply-tag window to
	// verify tags recycle safely for sequential calls.
	cfg := Config{Policy: ThreadPolls}
	runSim2(t, cfg,
		func(th *Thread) {
			th.proc.nextReq = tagReplySpan - 3 // a few calls below the wrap
			var reply [4]byte
			for i := 0; i < 6; i++ {
				if _, err := th.Call(comm.Addr{PE: 1, Proc: 0}, 1, []byte{byte(i)}, reply[:]); err != nil {
					t.Errorf("call %d across tag wrap: %v", i, err)
				}
				if reply[0] != byte(i) {
					t.Errorf("call %d: echoed %d", i, reply[0])
				}
			}
		},
		func(th *Thread) {
			th.proc.RegisterHandler(1, func(ctx *RSRContext) ([]byte, error) {
				return ctx.Req, nil
			})
		},
	)
}

func TestRSRTooLarge(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsPS, MaxRSR: 128}
	runSim2(t, cfg,
		func(th *Thread) {
			big := make([]byte, 256)
			if _, err := th.Call(comm.Addr{PE: 1, Proc: 0}, 1, big, nil); !errors.Is(err, ErrRSRTooLarge) {
				t.Errorf("oversized call: %v", err)
			}
			if err := th.Notify(comm.Addr{PE: 1, Proc: 0}, 1, big); !errors.Is(err, ErrRSRTooLarge) {
				t.Errorf("oversized notify: %v", err)
			}
		},
		nil,
	)
}

func TestRSRBadTargets(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsPS}
	runSim2(t, cfg,
		func(th *Thread) {
			if _, err := th.Call(comm.Addr{PE: 7, Proc: 0}, 1, nil, nil); !errors.Is(err, ErrBadTarget) {
				t.Errorf("call to bad target: %v", err)
			}
			if err := th.Notify(comm.Addr{PE: 7, Proc: 0}, 1, nil); !errors.Is(err, ErrBadTarget) {
				t.Errorf("notify to bad target: %v", err)
			}
		},
		nil,
	)
}

func TestRegisterHandlerValidation(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsPS}
	runSim2(t, cfg,
		func(th *Thread) {
			defer func() {
				if recover() == nil {
					t.Error("negative handler id accepted")
				}
			}()
			th.proc.RegisterHandler(-5, func(ctx *RSRContext) ([]byte, error) { return nil, nil })
		},
		nil,
	)
}

func TestHandlerErrorWrapsRemote(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsWQ}
	runSim2(t, cfg,
		func(th *Thread) {
			_, err := th.Call(comm.Addr{PE: 1, Proc: 0}, 1, nil, nil)
			if !errors.Is(err, ErrRemote) {
				t.Errorf("err = %v, want ErrRemote", err)
			}
			if err == nil || !contains(err.Error(), "deliberate failure") {
				t.Errorf("remote error text lost: %v", err)
			}
		},
		func(th *Thread) {
			th.proc.RegisterHandler(1, func(ctx *RSRContext) ([]byte, error) {
				return nil, errors.New("deliberate failure")
			})
		},
	)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// measureRSRLatency runs one Call against a PE crowded with compute
// threads and reports the virtual round-trip time under the given server
// priority configuration.
func measureRSRLatency(t *testing.T, serverPrio int) sim.Duration {
	t.Helper()
	cfg := Config{Policy: SchedulerPollsWQ, ServerPriority: serverPrio}
	var rtt sim.Duration
	rt := NewSimRuntime(Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Paragon1994())
	_, err := rt.Run(map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			host := th.proc.ep.Host()
			host.Charge(50 * sim.Millisecond) // let pe1's crowd get going
			t0 := host.Now()
			if err := th.Ping(comm.Addr{PE: 1, Proc: 0}); err != nil {
				t.Error(err)
			}
			rtt = host.Now().Sub(t0)
			// Release pe1's crowd.
			th.Send(GlobalID{PE: 1, Proc: 0, Thread: 0}, 9, []byte("stop"))
		},
		{PE: 1, Proc: 0}: func(th *Thread) {
			stop := false
			var crowd []*Thread
			for i := 0; i < 6; i++ {
				crowd = append(crowd, th.proc.CreateLocal("crowd", func(me *Thread) {
					host := me.proc.ep.Host()
					for !stop {
						host.Compute(60_000) // ~2.3ms per quantum
						me.Yield()
					}
				}, defaultSpawn()))
			}
			buf := make([]byte, 8)
			th.Recv(AnyThread, 9, buf)
			stop = true
			for _, c := range crowd {
				th.JoinLocal(c)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rtt
}

func TestServerPriorityBoostCutsLatency(t *testing.T) {
	boosted := measureRSRLatency(t, 5)
	unboosted := measureRSRLatency(t, -1)
	// With the boost, the server runs at the scheduling point right after
	// its message is noticed; without it, the request waits behind the
	// whole compute crowd. The paper's rationale, quantified.
	if boosted >= unboosted {
		t.Fatalf("boost did not help: boosted %.2fms vs unboosted %.2fms",
			boosted.Millis(), unboosted.Millis())
	}
}

func TestDeferReplyMisuse(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsPS}
	runSim2(t, cfg,
		func(th *Thread) {
			var reply [8]byte
			if _, err := th.Call(comm.Addr{PE: 1, Proc: 0}, 1, nil, reply[:]); err != nil {
				t.Errorf("deferred double-reply call: %v", err)
			}
		},
		func(th *Thread) {
			th.proc.RegisterHandler(1, func(ctx *RSRContext) ([]byte, error) {
				ctx.DeferReply()
				ctx.Reply([]byte("once"), nil)
				defer func() {
					if recover() == nil {
						t.Error("duplicate Reply did not panic")
					}
				}()
				ctx.Reply([]byte("twice"), nil)
				return nil, nil
			})
		},
	)
}

func TestServerThreadIsDaemonAndWellKnown(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsPS}
	runSim2(t, cfg,
		func(th *Thread) {
			srv := th.proc.server
			if srv == nil {
				t.Fatal("no server thread")
			}
			if srv.ID().Thread != serverLocalID {
				t.Errorf("server id %d, want %d", srv.ID().Thread, serverLocalID)
			}
			if !srv.tcb.Daemon() {
				t.Error("server thread is not a daemon")
			}
		},
		nil,
	)
}

// TestRSRDedupUnderBufferReuse drives serveOne directly, as the server
// thread does, to check what the reused buffers must not break: a cached
// reply replays byte-exact, the next request's reply is encoded over the
// previous one's array, a deferred reply that lands after its request was
// superseded is sent but not cached, and a deferred handler's context keeps
// its request while the server goes on serving with a fresh one. The
// replies go to threads that do not exist, so they queue as unexpected
// messages, each a copy taken when it was sent.
func TestRSRDedupUnderBufferReuse(t *testing.T) {
	cfg := Config{Policy: SchedulerPollsPS, DisableServer: true}
	rt := NewSimRuntime(Topology{PEs: 1, ProcsPerPE: 1}, cfg, machine.Paragon1994())
	rt.RegisterHandler(7, func(ctx *RSRContext) ([]byte, error) { return ctx.Req, nil })
	var deferred *RSRContext
	rt.RegisterHandler(8, func(ctx *RSRContext) ([]byte, error) {
		ctx.DeferReply()
		deferred = ctx
		return nil, nil
	})
	_, err := rt.Run(map[comm.Addr]MainFunc{{PE: 0, Proc: 0}: func(th *Thread) {
		p := th.proc
		const replyTag = tagReplyBase + 1
		a, b := gid(0, 0, 40), gid(0, 0, 41)
		serve := func(src GlobalID, id int32, seq uint32, req string) {
			e := wire.NewEnc(rsrHeaderLen + len(req))
			e.I32(id)
			e.U8(rsrFlagWantReply)
			e.I32(replyTag)
			e.U32(seq)
			e.U32(0) // epoch
			e.Raw([]byte(req))
			p.serveOne(comm.Header{SrcPE: src.PE, SrcProc: src.Proc, SrcThread: src.Thread, Tag: tagRSRRequest}, e.Out())
		}
		reply := func(seq uint32, data string) []byte { return encodeReply(nil, seq, []byte(data), nil) }

		serve(a, 7, 1, "the first request")
		rec := p.rsrSeen[a]
		if rec == nil || !bytes.Equal(rec.reply, reply(1, "the first request")) {
			t.Errorf("seq 1 not cached: %+v", rec)
			return
		}
		array := &rec.reply[0]
		serve(a, 7, 1, "a duplicate is replayed, not run")
		serve(a, 7, 2, "second")
		if !bytes.Equal(rec.reply, reply(2, "second")) || &rec.reply[0] != array {
			t.Errorf("seq 2's reply %q is not cached over seq 1's array", rec.reply)
		}
		if p.rsrSeen[a] != rec {
			t.Error("the source's dedup record was replaced, not updated in place")
		}
		serve(a, 7, 2, "a duplicate again")

		serve(a, 8, 3, "deferred request")
		d := deferred
		if d == nil {
			t.Error("the deferring handler did not run")
			return
		}
		req, reqLen := &d.Req[0], len(d.Req)
		serve(a, 7, 4, "supersedes 3")
		serve(b, 7, 1, "another source")
		if d.Src != a || d.seq != 3 || d.replied || len(d.Req) != reqLen || &d.Req[0] != req {
			t.Errorf("the server reused the deferred handler's context: Src %v seq %d replied %v Req %q",
				d.Src, d.seq, d.replied, d.Req)
			return
		}
		d.Reply([]byte("late"), nil)
		if rec.seq != 4 || !bytes.Equal(rec.reply, reply(4, "supersedes 3")) {
			t.Errorf("the superseded deferred reply was cached: seq %d reply %q", rec.seq, rec.reply)
		}
		serve(a, 7, 4, "a duplicate of 4")

		for i := 0; i < 4; i++ {
			p.ep.Host().Charge(sim.Millisecond) // let the replies land
			th.Yield()
		}
		got := map[int32][][]byte{}
		p.ep.UnexpectedSnapshot(func(h comm.Header, data []byte, _ sim.Time) {
			if h.Tag == replyTag {
				got[h.Ctx] = append(got[h.Ctx], append([]byte(nil), data...))
			}
		})
		want := map[int32][][]byte{
			a.Thread: {reply(1, "the first request"), reply(1, "the first request"), reply(2, "second"),
				reply(2, "second"), reply(4, "supersedes 3"), reply(3, "late"), reply(4, "supersedes 3")},
			b.Thread: {reply(1, "another source")},
		}
		for thread, w := range want {
			if len(got[thread]) != len(w) {
				t.Errorf("thread %d: %d replies, want %d", thread, len(got[thread]), len(w))
				continue
			}
			for i := range w {
				if !bytes.Equal(got[thread][i], w[i]) {
					t.Errorf("thread %d reply %d = %q, want %q", thread, i, got[thread][i], w[i])
				}
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}
