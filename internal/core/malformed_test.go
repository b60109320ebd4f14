package core

import (
	"errors"
	"sort"
	"testing"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/recovery"
	"chant/internal/sim"
	"chant/internal/wire"
)

// TestMalformedRequestsGetErrorReplies sends empty, one-byte and truncated
// requests to every builtin handler id over a 2-PE machine. Call accepts any
// handler id, so over a real transport these are frames any peer can send:
// each must come back as an ErrRemote reply — or succeed, for the three
// handlers whose request has no format to violate — and the serving process
// must still be answering afterwards. (hJoin, hCancel and hDetach used to
// index the request unchecked and take the whole machine down.)
func TestMalformedRequestsGetErrorReplies(t *testing.T) {
	bind := make([]byte, 17) // channel 0, role send, holder 0.0.0
	create, _ := encodeCreate("fn", []byte("arg"), CreateOpts{})
	cases := []struct {
		name      string
		id        int32
		malformed [][]byte // beyond the empty and the one-byte request
		anyIsFine bool     // every payload is a valid request
	}{
		{"create", hCreate, [][]byte{create[:6], create[:8], {2, 0, 0, 0, 0, 0, 0}}, false}, // cut before and inside the name; a bool of 2
		{"join", hJoin, [][]byte{{1, 2, 3}}, false},
		{"cancel", hCancel, [][]byte{{1, 2, 3}}, false},
		{"detach", hDetach, [][]byte{{1, 2, 3}}, false},
		{"ping", hPing, nil, true},
		{"shared-fetch", hSharedFetch, nil, false}, // any bytes are a name; none is homed here
		{"shared-store", hSharedStore, [][]byte{{9, 0, 'x'}}, false},
		{"shared-inval", hSharedInval, nil, true},
		{"chan-bind", hChanBind, [][]byte{bind[:16], append(bind[:17:17], 0xEE)}, false},
		{"marker", hMarker, [][]byte{{1, 2, 3}}, false},
		{"rejoin", hRejoin, nil, true},
	}
	if len(cases) != 11 {
		t.Fatal("one case per builtin handler id, -1 through -11")
	}
	peer := comm.Addr{PE: 1, Proc: 0}
	runSim2(t, Config{Policy: SchedulerPollsPS}, func(th *Thread) {
		for _, c := range cases {
			for _, req := range append([][]byte{nil, {1}}, c.malformed...) {
				_, err := th.Call(peer, c.id, req, make([]byte, 64))
				switch {
				case c.anyIsFine && err != nil:
					t.Errorf("%s(% x): %v, want success", c.name, req, err)
				case !c.anyIsFine && !errors.Is(err, ErrRemote):
					t.Errorf("%s(% x): %v, want an ErrRemote reply", c.name, req, err)
				}
				if err := th.Ping(peer); err != nil {
					t.Fatalf("peer stopped serving after %s(% x): %v", c.name, req, err)
				}
			}
		}
	}, nil)
}

// TestShortFramesAreDropped covers the two places a malformed message has no
// one to report to: an RSR envelope under 17 bytes (no reply tag) and, in
// body mode, a message under the 16-byte routing prefix (no destination).
func TestShortFramesAreDropped(t *testing.T) {
	runSim2(t, Config{Policy: ThreadPolls, Delivery: DeliverBody}, func(th *Thread) {
		p := th.proc
		for n := 0; n < rsrHeaderLen; n += 4 {
			if err := p.send(0, gid(1, 0, serverLocalID), tagRSRRequest, make([]byte, n)); err != nil {
				t.Fatal(err)
			}
		}
		p.ep.Send(comm.Addr{PE: 1}, 0, tagBodyWire, 0, make([]byte, bodyPrefixLen-1))
		if err := th.Ping(comm.Addr{PE: 1}); err != nil {
			t.Fatalf("peer stopped serving after short frames: %v", err)
		}
	}, nil)
}

// TestForgedTakeoverRefused forges the takeover header a handoff ships to
// the successor with a count of 0xFFFFFFFF. AcceptRecv used to size its
// pending list by it (a 96 GiB allocation, fatal); the count is bounded by
// the channel's window now.
func TestForgedTakeoverRefused(t *testing.T) {
	runSim2(t, Config{Policy: SchedulerPollsPS}, func(th *Thread) {
		ch, err := OpenChannel(th, 4, 0x100)
		if err != nil {
			t.Fatal(err)
		}
		tk := wire.NewEnc(16)
		putGID(&tk, gid(1, 0, 0))
		tk.U32(0xFFFFFFFF)
		if err := th.Send(th.ID(), ch.tag(chTagTakeover), tk.Out()); err != nil {
			t.Fatal(err)
		}
		if rp, _, err := ch.AcceptRecv(th); err == nil {
			t.Errorf("AcceptRecv took a forged takeover: %+v", rp)
		}
		// One message over the window is refused just the same.
		tk = wire.NewEnc(16)
		putGID(&tk, gid(1, 0, 0))
		tk.U32(5)
		th.Send(th.ID(), ch.tag(chTagTakeover), tk.Out())
		if _, _, err := ch.AcceptRecv(th); err == nil {
			t.Error("AcceptRecv took a takeover of capacity+1 messages")
		}
	}, nil)
}

// TestForgedPauseReplyRefused plays a sender that answers the handoff's
// pause with an impossible unaccounted-message count. Handoff used to size
// its drain by it (negative after the subtraction: a makeslice panic).
func TestForgedPauseReplyRefused(t *testing.T) {
	for _, forged := range []uint32{0xFFFFFFFF, 5, 0} { // -1; over the window; fewer than already consumed
		runSim2(t, Config{Policy: SchedulerPollsPS}, func(th *Thread) {
			ch, err := OpenChannel(th, 4, 0x100)
			if err != nil {
				t.Fatal(err)
			}
			if err := th.Send(gid(1, 0, 0), 0x200, ch.Encode()); err != nil {
				t.Fatal(err)
			}
			rp, err := ch.BindRecv(th)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rp.Recv(make([]byte, 8)); err != nil {
				t.Fatal(err)
			}
			if err := rp.Handoff(gid(1, 0, 0)); err == nil {
				t.Errorf("Handoff accepted a pause reply of %#x", forged)
			}
		}, func(th *Thread) {
			desc := make([]byte, 20)
			if _, _, err := th.Recv(AnyThread, 0x200, desc); err != nil {
				t.Fatal(err)
			}
			ch, _ := DecodeChannel(desc)
			th.Send(gid(0, 0, 0), ch.tag(chTagData), []byte("one"))
			var pause [1]byte
			th.Recv(AnyThread, ch.tag(chTagCtl), pause[:])
			rep := wire.NewEnc(4)
			rep.U32(forged)
			th.Send(gid(0, 0, 0), ch.tag(chTagCtlReply), rep.Out())
		})
	}
}

// TestAllGatherRefusesWhatItsPackCannotCarry: lengths in the pack are u16,
// and a longer value used to be truncated silently at the root.
func TestAllGatherRefusesWhatItsPackCannotCarry(t *testing.T) {
	groupFixture(t, Config{Policy: ThreadPolls, DisableServer: true}, 2, func(g *Group, th *Thread, rank int) {
		if _, err := g.AllGather(th, make([]byte, 8), 1<<16); err == nil {
			t.Errorf("rank %d: a 65,536-byte partial limit was accepted", rank)
		}
		if out, err := g.AllGather(th, []byte{byte(rank)}, 1); err != nil || len(out) != 2 {
			t.Errorf("rank %d: the group is unusable after the refusal: %v, %v", rank, out, err)
		}
	})
}

// FuzzServeOne pushes an arbitrary request at serveOne — the function every
// byte a peer sends to the server thread goes through — for every registered
// handler id plus one that is not, after a first request has primed the
// source's dedup record near the top of the epoch and sequence spaces. raw
// feeds data in as the whole frame, envelope included. Nothing may panic, and
// the two requests together may draw at most two replies.
func FuzzServeOne(f *testing.F) {
	f.Add(false, int8(0), uint32(1), uint32(1), []byte(nil))
	f.Fuzz(func(t *testing.T, raw bool, pick int8, epoch, seq uint32, data []byte) {
		cfg := Config{Policy: SchedulerPollsPS, DisableServer: true, CheckpointStore: recovery.NewMemStore()}
		rt := NewSimRuntime(Topology{PEs: 1, ProcsPerPE: 1}, cfg, machine.Paragon1994())
		rt.Register("fn", func(*Thread, []byte) {})
		rt.RegisterHandler(7, func(ctx *RSRContext) ([]byte, error) { return ctx.Req, nil })
		_, err := rt.Run(map[comm.Addr]MainFunc{{PE: 0, Proc: 0}: func(th *Thread) {
			p := th.proc
			if _, err := OpenChannel(th, 2, 0x100); err != nil {
				t.Fatal(err)
			}
			if _, err := p.NewShared("v", p.addr, []byte("init")); err != nil {
				t.Fatal(err)
			}
			ids := []int32{99} // unregistered
			for id := range p.handlers {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			id := ids[int(uint8(pick))%len(ids)]

			// The requests claim to come from a thread that is not there, so
			// the replies pile up unmatched where they can be counted.
			const replyTag = tagReplyBase + 1
			hdr := comm.Header{SrcPE: 0, SrcProc: 0, SrcThread: 40, Tag: tagRSRRequest}
			frame := func(id int32, epoch, seq uint32, req []byte) []byte {
				e := wire.NewEnc(rsrHeaderLen + len(req))
				e.I32(id)
				e.U8(rsrFlagWantReply)
				e.I32(replyTag)
				e.U32(seq)
				e.U32(epoch)
				e.Raw(req)
				return e.Out()
			}
			p.serveOne(hdr, frame(hPing, 0xFFFFFFFE, 0xFFFFFFFE, nil))
			if raw {
				p.serveOne(hdr, data)
			} else {
				p.serveOne(hdr, frame(id, epoch, seq, data))
			}
			for i := 0; i < 4; i++ {
				p.ep.Host().Charge(sim.Millisecond) // let the replies land,
				th.Yield()                          // and a join or store proxy run and reply
			}
			replies := 0
			p.ep.UnexpectedSnapshot(func(h comm.Header, _ []byte, _ sim.Time) {
				if h.Tag == replyTag {
					replies++
				}
			})
			if replies < 1 || replies > 2 {
				t.Errorf("handler %d: %d replies to two requests", id, replies)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
	})
}
