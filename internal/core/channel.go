package core

import (
	"errors"
	"fmt"

	"chant/internal/comm"
	"chant/internal/wire"
)

// Channels: a Fortran-M / NewThreads-style port abstraction built on top
// of Chant's primitives. The paper contrasts Chant's direct global naming
// with NewThreads, where "messages are sent to ports, and a port can be
// mapped into any thread on any node" via a global name server. This file
// shows that the port model is a thin layer over talking threads: the
// channel's creating process acts as the name broker (an RSR service),
// data flows directly thread-to-thread once both ports are bound, a
// credit protocol provides flow control, and the receive port can be
// handed off to another thread mid-stream.
//
// A Channel value is a plain descriptor: ship it to the two endpoint
// threads (in a create argument or a message), then call BindSend on one
// and BindRecv on the other. BindRecv registers and returns immediately;
// BindSend blocks until the receiver has registered (the broker defers its
// RSR reply). Binding receive sides before send sides therefore stays
// deadlock-free on arbitrary port graphs, cycles included.
type Channel struct {
	// Home is the broker process (where Open was called).
	Home comm.Addr
	// ID distinguishes channels created at the same home.
	ID int32
	// Capacity is the flow-control window in messages.
	Capacity int32
	// TagBase reserves four user tags for this channel's traffic:
	// data, control, control-reply, and takeover.
	TagBase int32
}

// Per-channel tag offsets.
const (
	chTagData     = 0
	chTagCtl      = 1
	chTagCtlReply = 2
	chTagTakeover = 3
	chTagCount    = 4
)

// Control-message kinds (first byte of a control payload).
const (
	chCtlCredit byte = iota
	chCtlPause
	chCtlResume
)

// Broker handler ids.
const (
	hChanBind int32 = -9
)

// Channel binding roles.
const (
	chRoleSend byte = iota
	chRoleRecv
)

// chanState is the broker's record of one channel.
type chanState struct {
	send, recv     GlobalID
	sendOK, recvOK bool
	waitSend       *RSRContext // deferred sender bind awaiting the receiver
	capacity       int32
}

// OpenChannel creates a channel descriptor brokered by the calling
// thread's process. capacity is the flow-control window; tagBase reserves
// [tagBase, tagBase+4) of this channel's user tag space.
func OpenChannel(t *Thread, capacity, tagBase int32) (Channel, error) {
	t.mustCurrent("OpenChannel")
	if capacity <= 0 {
		return Channel{}, fmt.Errorf("core: channel capacity must be positive")
	}
	if tagBase < 0 || tagBase+chTagCount > TagReserved {
		return Channel{}, fmt.Errorf("%w: channel tags [%d,%d) outside user space",
			ErrBadTag, tagBase, tagBase+chTagCount)
	}
	p := t.proc
	if p.channels == nil {
		p.channels = make(map[int32]*chanState)
	}
	id := p.nextChan
	p.nextChan++
	p.channels[id] = &chanState{capacity: capacity}
	return Channel{Home: p.addr, ID: id, Capacity: capacity, TagBase: tagBase}, nil
}

// Encode serializes the descriptor for shipping to endpoint threads:
// [home pe i32][home proc i32][id i32][capacity i32][tag base i32].
func (c Channel) Encode() []byte {
	e := wire.NewEnc(20)
	for _, v := range [...]int32{c.Home.PE, c.Home.Proc, c.ID, c.Capacity, c.TagBase} {
		e.I32(v)
	}
	return e.Out()
}

// DecodeChannel reverses Encode.
func DecodeChannel(b []byte) (Channel, error) {
	d := wire.NewDec(b)
	c := Channel{Home: comm.Addr{PE: d.I32(), Proc: d.I32()}, ID: d.I32(), Capacity: d.I32(), TagBase: d.I32()}
	if d.End() != nil {
		return Channel{}, fmt.Errorf("core: malformed channel descriptor (%d bytes)", len(b))
	}
	return c, nil
}

// encodeGID frames a lone global id: the broker's bind reply.
func encodeGID(g GlobalID) []byte {
	e := wire.NewEnc(12)
	putGID(&e, g)
	return e.Out()
}

// registerChannelHandlers installs the broker's RSR handler.
func (p *Process) registerChannelHandlers() {
	p.handlers[hChanBind] = func(ctx *RSRContext) ([]byte, error) {
		d := wire.NewDec(ctx.Req)
		id, role, holder := d.I32(), d.U8(), getGID(&d)
		if d.End() != nil {
			return nil, fmt.Errorf("%w: channel bind", errMalformed)
		}
		st := p.channels[id]
		if st == nil {
			return nil, fmt.Errorf("core: no such channel %d at %v", id, p.addr)
		}
		switch role {
		case chRoleRecv:
			// Receive-side registration never blocks: the receiver can
			// match data by tag without knowing the sender, and learns the
			// sender's identity from the first message header. Replying
			// immediately keeps arbitrary bind orders (including cyclic LP
			// graphs) deadlock-free. The reply carries the sender if
			// already known, zeros otherwise.
			st.recv, st.recvOK = holder, true
			if w := st.waitSend; w != nil {
				st.waitSend = nil
				w.Reply(encodeGID(st.recv), nil)
			}
			if st.sendOK {
				return encodeGID(st.send), nil
			}
			return encodeGID(GlobalID{}), nil
		case chRoleSend:
			// The sender must know the receive holder before its first
			// message; defer until the receiver registers.
			st.send, st.sendOK = holder, true
			if st.recvOK {
				return encodeGID(st.recv), nil
			}
			ctx.DeferReply()
			st.waitSend = ctx
			return nil, nil
		default:
			return nil, errors.New("core: bad channel role")
		}
	}
}

// bind registers holder for role at the channel's home and returns the
// peer's identity; a sender's bind blocks until the receiver has bound. The
// request is [channel id i32][role u8][holder gid], the reply a gid.
func (c Channel) bind(t *Thread, role byte, holder GlobalID) (GlobalID, error) {
	req := wire.NewEnc(17)
	req.I32(c.ID)
	req.U8(role)
	putGID(&req, holder)
	var reply [12]byte
	n, err := t.Call(c.Home, hChanBind, req.Out(), reply[:])
	if err != nil {
		return GlobalID{}, err
	}
	d := wire.NewDec(reply[:n])
	peer := getGID(&d)
	if d.End() != nil {
		return GlobalID{}, fmt.Errorf("core: malformed channel bind reply (%d bytes)", n)
	}
	return peer, nil
}

// SendPort is the sending end of a channel, owned by one thread.
type SendPort struct {
	ch      Channel
	t       *Thread
	peer    GlobalID // current receive holder
	credits int32
}

// RecvPort is the receiving end of a channel, owned by one thread.
type RecvPort struct {
	ch         Channel
	t          *Thread
	peer       GlobalID // the sender (learned lazily from traffic)
	peerKnown  bool
	uncredited int32 // consumed messages not yet credited back
}

// BindSend attaches the calling thread as the channel's sender. It blocks
// until the receiver has bound too.
func (c Channel) BindSend(t *Thread) (*SendPort, error) {
	t.mustCurrent("BindSend")
	peer, err := c.bind(t, chRoleSend, t.ID())
	if err != nil {
		return nil, err
	}
	return &SendPort{ch: c, t: t, peer: peer, credits: c.Capacity}, nil
}

// BindRecv attaches the calling thread as the channel's receiver. It
// registers with the broker and returns immediately; if the sender is not
// yet known, its identity is learned from the first message received.
func (c Channel) BindRecv(t *Thread) (*RecvPort, error) {
	t.mustCurrent("BindRecv")
	peer, err := c.bind(t, chRoleRecv, t.ID())
	if err != nil {
		return nil, err
	}
	rp := &RecvPort{ch: c, t: t, peer: peer}
	if peer == (GlobalID{}) {
		rp.peerKnown = false
	} else {
		rp.peerKnown = true
	}
	return rp, nil
}

func (c Channel) tag(off int32) int32 { return c.TagBase + off }

// Send transmits data down the channel, blocking when the flow-control
// window is exhausted until the receiver grants more credit. It also
// services control traffic (pause/resume for receive-port handoff).
func (s *SendPort) Send(data []byte) error {
	s.t.mustCurrent("SendPort.Send")
	// Service any pending control message (pause) before sending.
	if _, pending := s.t.proc.ep.Probe(mustSpec(s.t, AnyThread, s.ch.tag(chTagCtl))); pending {
		if err := s.handleControl(true); err != nil {
			return err
		}
	}
	for s.credits == 0 {
		if err := s.handleControl(false); err != nil {
			return err
		}
	}
	s.credits--
	return s.t.Send(s.peer, s.ch.tag(chTagData), data)
}

// handleControl receives and processes one control message. nonBlocking
// only applies to intent: the message is known to be present when true.
func (s *SendPort) handleControl(known bool) error {
	buf := make([]byte, 24)
	n, _, err := s.t.Recv(AnyThread, s.ch.tag(chTagCtl), buf)
	if err != nil {
		return err
	}
	d := wire.NewDec(buf[:n])
	switch kind := d.U8(); {
	case d.Err() != nil:
		return errors.New("core: empty channel control message")
	case kind == chCtlCredit: // [kind u8][credits u32]
		credits := d.U32()
		if d.Err() != nil {
			return errors.New("core: malformed credit")
		}
		s.credits += int32(credits)
		return nil
	case kind == chCtlPause: // [kind u8], answered with [unaccounted i32]
		// Report how many messages are unaccounted for, then wait for the
		// resume that carries the new receive holder.
		rep := wire.NewEnc(4)
		rep.I32(s.ch.Capacity - s.credits)
		if err := s.t.Send(s.peer, s.ch.tag(chTagCtlReply), rep.Out()); err != nil {
			return err
		}
		for {
			n, _, err := s.t.Recv(AnyThread, s.ch.tag(chTagCtl), buf)
			if err != nil {
				return err
			}
			d := wire.NewDec(buf[:n])
			if kind, holder := d.U8(), getGID(&d); kind == chCtlResume && d.Err() == nil {
				s.peer, s.credits = holder, s.ch.Capacity
				return nil
			}
			// Credits racing with the handoff are superseded by the
			// resume's full window; ignore them.
		}
	default:
		return fmt.Errorf("core: unknown channel control kind %d", kind)
	}
}

// SendUnflowed transmits a message outside the flow-control window: no
// credit is consumed, so it can never block on an inattentive receiver —
// and conversely nothing bounds how many such messages may queue at the
// destination. Intended for protocol traffic a layer above the channel
// (shutdown markers, clock announcements) whose volume that layer bounds
// itself; cyclic channel graphs must use it for any message a blocked
// peer may need to make progress, or credit exhaustion can deadlock the
// cycle.
func (s *SendPort) SendUnflowed(data []byte) error {
	s.t.mustCurrent("SendPort.SendUnflowed")
	return s.t.Send(s.peer, s.ch.tag(chTagData), data)
}

// Recv delivers the next channel message into buf, granting credit back to
// the sender as the window half-empties. Matching is by the channel's data
// tag; the sender's identity (needed for credit grants) is taken from the
// message headers.
func (r *RecvPort) Recv(buf []byte) (int, error) {
	r.t.mustCurrent("RecvPort.Recv")
	n, from, err := r.t.Recv(AnyThread, r.ch.tag(chTagData), buf)
	if err != nil {
		return n, err
	}
	if !r.peerKnown {
		r.peer, r.peerKnown = from, true
	}
	r.uncredited++
	if r.uncredited >= r.ch.Capacity/2 || r.uncredited == r.ch.Capacity {
		if err := r.grant(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// grant returns accumulated credit to the sender.
func (r *RecvPort) grant() error {
	if r.uncredited == 0 || !r.peerKnown {
		return nil
	}
	msg := wire.NewEnc(5)
	msg.U8(chCtlCredit)
	msg.U32(uint32(r.uncredited))
	r.uncredited = 0
	return r.t.Send(r.peer, r.ch.tag(chTagCtl), msg.Out())
}

// Handoff transfers the receive port to successor (which must call
// AcceptRecv). The protocol pauses the sender, drains every in-flight
// message into limbo storage, re-registers the new holder with the broker,
// ships the port state (and drained messages) to the successor, and
// resumes the sender toward the new holder.
func (r *RecvPort) Handoff(successor GlobalID) error {
	r.t.mustCurrent("RecvPort.Handoff")
	if !r.peerKnown {
		return errors.New("core: cannot hand off a channel before any message has arrived (sender unknown)")
	}
	t := r.t
	// Pause the sender.
	if err := t.Send(r.peer, r.ch.tag(chTagCtl), []byte{chCtlPause}); err != nil {
		return err
	}
	var rep [4]byte
	n, _, err := t.Recv(r.peer, r.ch.tag(chTagCtlReply), rep[:])
	if err != nil {
		return err
	}
	// The sender's unaccounted count covers what this port consumed but has
	// not credited back; the rest is in flight. Both ends of that range are
	// bounded by the window, so a forged reply cannot size the drain.
	d := wire.NewDec(rep[:n])
	outstanding := int32(d.Limit(int(d.U32()), int(r.ch.Capacity))) - r.uncredited
	if d.End() != nil || outstanding < 0 {
		return errors.New("core: malformed pause reply")
	}
	// Drain in-flight data messages.
	drained := make([][]byte, 0, outstanding)
	buf := make([]byte, 64<<10)
	for i := int32(0); i < outstanding; i++ {
		n, _, err := t.Recv(r.peer, r.ch.tag(chTagData), buf)
		if err != nil {
			return err
		}
		drained = append(drained, append([]byte(nil), buf[:n]...))
	}
	// Re-register the new holder with the broker.
	if _, err := r.ch.bind(t, chRoleRecv, successor); err != nil {
		return err
	}
	// Ship the takeover, [sender gid][count u32], then the drained messages.
	tk := wire.NewEnc(16)
	putGID(&tk, r.peer)
	tk.U32(uint32(len(drained)))
	if err := t.Send(successor, r.ch.tag(chTagTakeover), tk.Out()); err != nil {
		return err
	}
	for _, m := range drained {
		if err := t.Send(successor, r.ch.tag(chTagTakeover), m); err != nil {
			return err
		}
	}
	// Resume the sender toward the new holder.
	rs := wire.NewEnc(13) // [kind u8][new holder gid]
	rs.U8(chCtlResume)
	putGID(&rs, successor)
	if err := t.Send(r.peer, r.ch.tag(chTagCtl), rs.Out()); err != nil {
		return err
	}
	r.t = nil // the port is dead in this thread
	return nil
}

// AcceptRecv receives a handed-off receive port in the successor thread.
// Messages drained during the handoff are replayed before new traffic.
func (c Channel) AcceptRecv(t *Thread) (*RecvPort, [][]byte, error) {
	t.mustCurrent("AcceptRecv")
	var tk [16]byte
	n, from, err := t.Recv(AnyThread, c.tag(chTagTakeover), tk[:])
	if err != nil {
		return nil, nil, err
	}
	// A handoff drains at most one window, so the window bounds the count.
	d := wire.NewDec(tk[:n])
	peer, count := getGID(&d), d.Limit(int(d.U32()), int(c.Capacity))
	if d.End() != nil {
		return nil, nil, errors.New("core: malformed channel takeover")
	}
	pending := make([][]byte, 0, count)
	buf := make([]byte, 64<<10)
	for i := 0; i < count; i++ {
		n, _, err := t.Recv(from, c.tag(chTagTakeover), buf)
		if err != nil {
			return nil, nil, err
		}
		pending = append(pending, append([]byte(nil), buf[:n]...))
	}
	return &RecvPort{ch: c, t: t, peer: peer}, pending, nil
}

// mustSpec builds a recv spec, panicking on impossible inputs (internal
// channel traffic always uses exact tags).
func mustSpec(t *Thread, src GlobalID, tag int32) comm.MatchSpec {
	spec, err := t.proc.recvSpec(t.ID().Thread, src, tag)
	if err != nil {
		panic("core: channel spec: " + err.Error())
	}
	return spec
}
