package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/trace"
	"chant/internal/wire"
)

// The differential test: one program, two hosts, one order. Each program
// below is written so that what its threads observe cannot depend on
// arrival timing: every thread's operations are causally ordered by the
// messages it waits for. It runs once on SimHost over simnet and
// diffRealRuns times on RealHost over memnet, and every run must show
//
//   - the same per-thread stream of completed operations (kind, peer, tag,
//     byte count, FNV-1a of the payload), and
//   - the same per-process scheduler log projected to spawn, exit and
//     cancel, thread ids included.
//
// The projection drops every other event kind, because their counts and
// order follow arrival timing rather than the program (DESIGN.md "No host
// forks"): idle entries and yield-fast events count how often a scheduler
// found nothing to do; under Thread polls and Scheduler polls (PS) each
// missed poll adds a switch-in or partial-switch; under Scheduler polls (WQ)
// a receive the message beat completes without a block/unblock pair, and
// at start-up one process's block and another's unblock can swap.

// diffRealRuns is how many real-mode runs each program and policy must
// compare in full, operations and projected log both.
const diffRealRuns = 20

// diffLogSize is each process's event ring. An unloaded 2-vCPU host logs a
// few hundred events per run, but a waiting thread under Thread polls or PS
// logs a switch per missed poll, so a peer the OS deschedules for ~10 ms
// fills the ring. A wrapped ring has lost its spawns: that run compares
// operations only and does not count toward diffRealRuns.
const diffLogSize = 1 << 16

// hostOp is one completed, program-visible operation of a thread.
type hostOp struct {
	Kind string
	Peer GlobalID
	Tag  int32
	N    int
	Sum  uint64
}

func (o hostOp) String() string {
	return fmt.Sprintf("%s peer=%v tag=%d n=%d fnv=%016x", o.Kind, o.Peer, o.Tag, o.N, o.Sum)
}

// opLog collects each thread's operations in completion order. Real-mode
// processes append from their own goroutines, hence the lock.
type opLog struct {
	mu sync.Mutex
	by map[GlobalID][]hostOp
}

func (l *opLog) add(who GlobalID, kind string, peer GlobalID, tag int32, data []byte) {
	h := fnv.New64a()
	h.Write(data)
	l.mu.Lock()
	l.by[who] = append(l.by[who], hostOp{Kind: kind, Peer: peer, Tag: tag, N: len(data), Sum: h.Sum64()})
	l.mu.Unlock()
}

// logEntry is one scheduler event with its timestamp projected away.
type logEntry struct {
	Kind   trace.EventKind
	Thread int32
}

// hostRun is what one run of a program shows; log is nil if a ring wrapped.
type hostRun struct {
	ops map[GlobalID][]hostOp
	log map[comm.Addr][]logEntry
}

// hostProgram registers what a program needs on rt and returns its mains.
// Failures inside threads are reported through t.Errorf.
type hostProgram func(t *testing.T, rt *Runtime, ops *opLog) map[comm.Addr]MainFunc

// diffPayload is the i-th message of a stream: its length and bytes both
// vary with i, so the byte count and the hash witness which message it is.
func diffPayload(i int) []byte {
	b := make([]byte, 8+i%40)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

func reversed(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[len(b)-1-i] = c
	}
	return out
}

// diffPingPong: one thread per PE, a fixed number of echoed rounds.
func diffPingPong(t *testing.T, rt *Runtime, ops *opLog) map[comm.Addr]MainFunc {
	const rounds = 32
	a, b := gid(0, 0, 0), gid(1, 0, 0)
	return map[comm.Addr]MainFunc{
		a.Addr(): func(th *Thread) {
			buf := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				out := diffPayload(i)
				if err := th.Send(b, 1, out); err != nil {
					t.Error(err)
					return
				}
				ops.add(th.ID(), "send", b, 1, out)
				n, from, err := th.Recv(b, 2, buf)
				if err != nil {
					t.Error(err)
					return
				}
				ops.add(th.ID(), "recv", from, 2, buf[:n])
			}
		},
		b.Addr(): func(th *Thread) {
			buf := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				n, from, err := th.Recv(a, 1, buf)
				if err != nil {
					t.Error(err)
					return
				}
				ops.add(th.ID(), "recv", from, 1, buf[:n])
				out := reversed(buf[:n])
				if err := th.Send(from, 2, out); err != nil {
					t.Error(err)
					return
				}
				ops.add(th.ID(), "send", from, 2, out)
			}
		},
	}
}

// diffRSREcho: one caller, one echo handler served by the other PE's server
// thread, which records what it served under its own id.
func diffRSREcho(t *testing.T, rt *Runtime, ops *opLog) map[comm.Addr]MainFunc {
	const calls, hEcho = 32, 7
	server := gid(1, 0, serverLocalID)
	rt.RegisterHandler(hEcho, func(ctx *RSRContext) ([]byte, error) {
		ops.add(server, "serve", ctx.Src, hEcho, ctx.Req)
		return reversed(ctx.Req), nil
	})
	return map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			reply := make([]byte, 64)
			for i := 0; i < calls; i++ {
				n, err := th.Call(server.Addr(), hEcho, diffPayload(i), reply)
				if err != nil {
					t.Error(err)
					return
				}
				ops.add(th.ID(), "call", server, hEcho, reply[:n])
			}
		},
	}
}

// diffChannelChain: pe0's main streams down a channel whose receive port
// passes along a chain of three threads — pe1's main, a thread on pe0, a
// thread on pe1 — each taking a fixed share before handing off. A channel
// operation's peer is the channel itself (home and id), because the thread
// at the far end changes at each hand-off.
func diffChannelChain(t *testing.T, rt *Runtime, ops *opLog) map[comm.Addr]MainFunc {
	const window, share, tagCh, tagNext = 4, 8, 1, 2
	const total = 3 * share
	sender, first := gid(0, 0, 0), gid(1, 0, 0)
	chanPeer := func(ch Channel) GlobalID { return GlobalID{PE: ch.Home.PE, Proc: ch.Home.Proc, Thread: ch.ID} }
	dataTag := func(ch Channel) int32 { return ch.tag(chTagData) }
	// take receives one share on rp, counting the messages a hand-off
	// drained into pending as received.
	take := func(th *Thread, ch Channel, rp *RecvPort, pending [][]byte) {
		for _, m := range pending {
			ops.add(th.ID(), "chan-recv", chanPeer(ch), dataTag(ch), m)
		}
		buf := make([]byte, 64)
		for i := len(pending); i < share; i++ {
			n, err := rp.Recv(buf)
			if err != nil {
				t.Error(err)
				return
			}
			ops.add(th.ID(), "chan-recv", chanPeer(ch), dataTag(ch), buf[:n])
		}
	}
	handoff := func(th *Thread, ch Channel, rp *RecvPort, to GlobalID) {
		if err := rp.Handoff(to); err != nil {
			t.Error(err)
			return
		}
		ops.add(th.ID(), "chan-handoff", to, dataTag(ch), nil)
	}
	accept := func(th *Thread, ch Channel) (*RecvPort, [][]byte) {
		rp, pending, err := ch.AcceptRecv(th)
		if err != nil {
			t.Error(err)
		}
		return rp, pending
	}
	return map[comm.Addr]MainFunc{
		sender.Addr(): func(th *Thread) {
			ch, err := OpenChannel(th, window, 0x2000)
			if err != nil {
				t.Error(err)
				return
			}
			second := th.Process().CreateLocal("second", func(me *Thread) {
				rp, pending := accept(me, ch)
				if rp == nil {
					return
				}
				take(me, ch, rp, pending)
				buf := make([]byte, 16)
				n, from, err := me.Recv(first, tagNext, buf)
				if err != nil {
					t.Error(err)
					return
				}
				ops.add(me.ID(), "recv", from, tagNext, buf[:n])
				d := wire.NewDec(buf[:n])
				handoff(me, ch, rp, getGID(&d))
			}, defaultSpawn())
			intro := append(ch.Encode(), encodeGID(second.ID())...)
			if err := th.Send(first, tagCh, intro); err != nil {
				t.Error(err)
				return
			}
			ops.add(th.ID(), "send", first, tagCh, intro)
			sp, err := ch.BindSend(th)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < total; i++ {
				out := diffPayload(i)
				if err := sp.Send(out); err != nil {
					t.Error(err)
					return
				}
				ops.add(th.ID(), "chan-send", chanPeer(ch), dataTag(ch), out)
			}
			if _, err := th.JoinLocal(second); err != nil {
				t.Error(err)
			}
			ops.add(th.ID(), "join", second.ID(), 0, nil)
		},
		first.Addr(): func(th *Thread) {
			buf := make([]byte, 64)
			n, from, err := th.Recv(sender, tagCh, buf)
			if err != nil {
				t.Error(err)
				return
			}
			ops.add(th.ID(), "recv", from, tagCh, buf[:n])
			const descLen = 20 // Channel.Encode's five i32s
			ch, err := DecodeChannel(buf[:descLen])
			d := wire.NewDec(buf[descLen:n])
			second := getGID(&d)
			if err != nil || d.End() != nil {
				t.Errorf("intro: %v, %v", err, d.End())
				return
			}
			third := th.Process().CreateLocal("third", func(me *Thread) {
				if rp, pending := accept(me, ch); rp != nil {
					take(me, ch, rp, pending)
				}
			}, defaultSpawn())
			rp, err := ch.BindRecv(th)
			if err != nil {
				t.Error(err)
				return
			}
			take(th, ch, rp, nil)
			next := encodeGID(third.ID())
			if err := th.Send(second, tagNext, next); err != nil {
				t.Error(err)
				return
			}
			ops.add(th.ID(), "send", second, tagNext, next)
			handoff(th, ch, rp, second)
			if _, err := th.JoinLocal(third); err != nil {
				t.Error(err)
			}
			ops.add(th.ID(), "join", third.ID(), 0, nil)
		},
	}
}

// diffTree: pe0's main creates a node on pe1; every node above the leaves
// creates two children on the other PE, one after the other. Each child
// reports to its parent before it exits; the parent joins the first and
// detaches the second only after that report, so every join and detach
// finds its target already finished, and a target's exit never races the
// request (or the join proxy) that names it.
func diffTree(t *testing.T, rt *Runtime, ops *opLog) map[comm.Addr]MainFunc {
	const depth, tagUp = 3, 3
	arg := func(level byte, parent GlobalID) []byte {
		e := wire.NewEnc(13)
		e.U8(level)
		putGID(&e, parent)
		return e.Out()
	}
	// spawn creates one child of th on pe and waits for its report.
	spawn := func(th *Thread, pe int32, level byte) (GlobalID, []byte, bool) {
		a := arg(level, th.ID())
		child, err := th.Create(pe, 0, "node", a, CreateOpts{})
		if err != nil {
			t.Error(err)
			return GlobalID{}, nil, false
		}
		ops.add(th.ID(), "create", child, 0, a)
		buf := make([]byte, 64)
		n, from, err := th.Recv(child, tagUp, buf)
		if err != nil {
			t.Error(err)
			return GlobalID{}, nil, false
		}
		ops.add(th.ID(), "recv", from, tagUp, buf[:n])
		return child, buf[:n], true
	}
	rt.Register("node", func(th *Thread, a []byte) {
		d := wire.NewDec(a)
		level, parent := d.U8(), getGID(&d)
		if d.End() != nil {
			t.Errorf("node arg: %v", d.End())
			return
		}
		val := []byte{byte(th.PE()), level, byte(th.ID().Thread)}
		if level > 0 {
			other := 1 - th.PE()
			joined, _, ok := spawn(th, other, level-1)
			if !ok {
				return
			}
			v, err := th.Join(joined)
			if err != nil {
				t.Error(err)
				return
			}
			got, _ := v.([]byte)
			ops.add(th.ID(), "join", joined, 0, got)
			detached, report, ok := spawn(th, other, level-1)
			if !ok {
				return
			}
			if err := th.DetachGlobal(detached); err != nil {
				t.Error(err)
				return
			}
			ops.add(th.ID(), "detach", detached, 0, nil)
			val = append(append(val, got...), report...)
		}
		if err := th.Send(parent, tagUp, val); err != nil {
			t.Error(err)
			return
		}
		ops.add(th.ID(), "send", parent, tagUp, val)
		th.Exit(val)
	})
	return map[comm.Addr]MainFunc{
		{PE: 0, Proc: 0}: func(th *Thread) {
			root, _, ok := spawn(th, 1, depth)
			if !ok {
				return
			}
			v, err := th.Join(root)
			if err != nil {
				t.Error(err)
				return
			}
			got, _ := v.([]byte)
			ops.add(th.ID(), "join", root, 0, got)
		},
	}
}

// runOnHost runs prog once under pol, on the simulator or on the wall
// clock, and returns what its threads and schedulers recorded.
func runOnHost(t *testing.T, prog hostProgram, pol PolicyKind, real bool) hostRun {
	t.Helper()
	topo := Topology{PEs: 2, ProcsPerPE: 1}
	cfg := Config{Policy: pol, Delivery: DeliverCtx, EventLogSize: diffLogSize}
	var rt *Runtime
	if real {
		rt = NewRealRuntime(topo, cfg, machine.Modern())
	} else {
		rt = NewSimRuntime(topo, cfg, machine.Paragon1994())
	}
	ops := &opLog{by: make(map[GlobalID][]hostOp)}
	if _, err := rt.Run(prog(t, rt, ops)); err != nil {
		t.Fatal(err)
	}
	run := hostRun{ops: ops.by, log: make(map[comm.Addr][]logEntry)}
	for _, a := range topo.Addrs() {
		l := rt.Process(a).EventLog()
		evs := l.Snapshot()
		if uint64(len(evs)) != l.Total() {
			run.log = nil
			break
		}
		for _, e := range evs {
			switch e.Kind {
			case trace.EvSpawn, trace.EvExit, trace.EvCancel:
				run.log[a] = append(run.log[a], logEntry{Kind: e.Kind, Thread: e.Thread})
			}
		}
	}
	return run
}

// firstDiff names where two runs part, for a readable failure.
func firstDiff(want, got hostRun) string {
	for who, w := range want.ops {
		g := got.ops[who]
		for i := range w {
			if i >= len(g) {
				return fmt.Sprintf("thread %v stops after %d ops; sim's next: %v", who, len(g), w[i])
			}
			if w[i] != g[i] {
				return fmt.Sprintf("thread %v op %d: sim %v, real %v", who, i, w[i], g[i])
			}
		}
		if len(g) > len(w) {
			return fmt.Sprintf("thread %v has %d extra ops, first %v", who, len(g)-len(w), g[len(w)])
		}
	}
	for who := range got.ops {
		if _, ok := want.ops[who]; !ok {
			return fmt.Sprintf("thread %v recorded ops only in real mode", who)
		}
	}
	for a, w := range want.log {
		if g := got.log[a]; got.log != nil && !reflect.DeepEqual(w, g) {
			return fmt.Sprintf("%v projected log: sim %v, real %v", a, w, g)
		}
	}
	return "projected logs differ in their process sets"
}

// TestHostsAgreeOnProgramOrder is the differential test: each program
// under each polling policy shows the same per-thread operation streams
// and the same projected scheduler logs on SimHost+simnet and in every
// RealHost+memnet run.
func TestHostsAgreeOnProgramOrder(t *testing.T) {
	programs := []struct {
		name string
		prog hostProgram
	}{
		{"pingpong", diffPingPong},
		{"rsr-echo", diffRSREcho},
		{"channel-chain", diffChannelChain},
		{"create-join-detach", diffTree},
	}
	for _, p := range programs {
		for _, pol := range []PolicyKind{ThreadPolls, SchedulerPollsPS, SchedulerPollsWQ} {
			t.Run(p.name+"/"+pol.String(), func(t *testing.T) {
				want := runOnHost(t, p.prog, pol, false)
				if len(want.ops) == 0 || want.log == nil {
					t.Fatal("the simulated run recorded no operations or wrapped its log")
				}
				i, full := 0, 0
				for ; full < diffRealRuns; i++ {
					if i == 2*diffRealRuns {
						t.Fatalf("%d of %d real runs wrapped the %d-event log", i-full, i, diffLogSize)
					}
					got := runOnHost(t, p.prog, pol, true)
					if !reflect.DeepEqual(want.ops, got.ops) ||
						got.log != nil && !reflect.DeepEqual(want.log, got.log) {
						t.Fatalf("real run %d diverges from the simulated run: %s", i, firstDiff(want, got))
					}
					if got.log != nil {
						full++
					}
				}
				if i > full {
					t.Logf("%d of %d real runs wrapped the event log and compared operations only", i-full, i)
				}
			})
		}
	}
}
