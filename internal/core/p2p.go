package core

import (
	"fmt"

	"chant/internal/comm"
	"chant/internal/sim"
	"chant/internal/ult"
	"chant/internal/wire"
)

// bodyPrefixLen is the size of the routing prefix prepended to message
// bodies in DeliverBody mode: [destination thread i32][source thread i32]
// [user tag i32][delivery flags i32], written by sendFlags and read by the
// dispatcher.
const bodyPrefixLen = 16

// maxBodyMsg bounds message size in DeliverBody mode, where the dispatcher
// must receive into a maximal buffer.
const maxBodyMsg = 64 << 10

// Send transmits data to the global thread dst with the given user tag
// (pthread_chanter_send). It is locally blocking: on return, data may be
// reused by the caller.
func (t *Thread) Send(dst GlobalID, tag int32, data []byte) error {
	t.mustCurrent("Send")
	if err := checkUserTag(tag); err != nil {
		return err
	}
	if !t.proc.rt.validAddr(dst.Addr()) {
		return fmt.Errorf("%w: %v", ErrBadTarget, dst)
	}
	return t.proc.send(t.gid.Thread, dst, tag, data)
}

// SendSync is the globally-blocking send: it returns only after the
// destination thread has observed the matching receive (the paper's
// stronger "degree of blocking"). The acknowledgement is carried by the
// receiver's runtime automatically.
func (t *Thread) SendSync(dst GlobalID, tag int32, data []byte) error {
	t.mustCurrent("SendSync")
	if err := checkUserTag(tag); err != nil {
		return err
	}
	if !t.proc.rt.validAddr(dst.Addr()) {
		return fmt.Errorf("%w: %v", ErrBadTarget, dst)
	}
	// Pre-post the ack receive so it is never an unexpected message.
	spec, err := t.proc.recvSpec(t.gid.Thread, dst, tagSyncAck)
	if err != nil {
		return err
	}
	ack := t.proc.ep.Irecv(spec, nil)
	if err := t.proc.sendFlags(t.gid.Thread, dst, tag, comm.FlagSync, data); err != nil {
		t.proc.ep.CancelRecv(ack)
		t.proc.ep.ReleaseHandle(ack)
		return err
	}
	t.proc.policy.Wait(ack, noBoost)
	t.proc.ep.ReleaseHandle(ack)
	return nil
}

// maybeSyncAck sends the synchronous-send acknowledgement for a completed
// receive, exactly once per handle.
func (p *Process) maybeSyncAck(me int32, h *comm.RecvHandle) {
	if h == nil || !h.NeedsSyncAck() {
		return
	}
	hdr := h.Header()
	src := GlobalID{PE: hdr.SrcPE, Proc: hdr.SrcProc, Thread: hdr.SrcThread}
	if err := p.send(me, src, tagSyncAck, nil); err != nil {
		panic("core: sync ack send: " + err.Error())
	}
}

// send is the mode-dispatching transmit path shared by user sends and
// internal (RSR, handshake) traffic.
func (p *Process) send(srcThread int32, dst GlobalID, tag int32, data []byte) error {
	return p.sendFlags(srcThread, dst, tag, 0, data)
}

func (p *Process) sendFlags(srcThread int32, dst GlobalID, tag, flags int32, data []byte) error {
	host := p.ep.Host()
	m := host.Model()
	host.Charge(m.HeaderPack)
	switch p.cfg.Delivery {
	case DeliverCtx:
		p.ep.SendFlags(dst.Addr(), dst.Thread, tag, srcThread, flags, data)
	case DeliverTagPack:
		if dst.Thread > maxPackedThread {
			return fmt.Errorf("%w: thread %d", ErrThreadRange, dst.Thread)
		}
		p.ep.SendFlags(dst.Addr(), 0, packTag(dst.Thread, tag), srcThread, flags, data)
	case DeliverBody:
		if len(data) > maxBodyMsg {
			return fmt.Errorf("core: message of %d bytes exceeds body-mode maximum %d",
				len(data), maxBodyMsg)
		}
		// Copy on the sending side "to insert the thread id" — the cost
		// the paper's header-based designs avoid.
		host.Charge(m.CopyCost(len(data)))
		wrapped := wire.NewEnc(bodyPrefixLen + len(data))
		wrapped.I32(dst.Thread)
		wrapped.I32(srcThread)
		wrapped.I32(tag)
		wrapped.I32(flags)
		wrapped.Raw(data)
		p.ep.Send(dst.Addr(), 0, tagBodyWire, srcThread, wrapped.Out())
	}
	return nil
}

// recvSpec builds the comm-layer match specification that routes a message
// for local thread me, from source thread src, with user tag tag, under the
// process's delivery mode.
func (p *Process) recvSpec(me int32, src GlobalID, tag int32) (comm.MatchSpec, error) {
	switch p.cfg.Delivery {
	case DeliverCtx, DeliverBody:
		// In body mode the dispatcher reconstructs full headers, so
		// receives match exactly as in ctx mode.
		return comm.MatchSpec{
			SrcPE:     src.PE,
			SrcProc:   src.Proc,
			SrcThread: src.Thread,
			Ctx:       me,
			Tag:       tag,
		}, nil
	case DeliverTagPack:
		if tag == AnyField {
			return comm.MatchSpec{}, fmt.Errorf(
				"%w: tag wildcard is not expressible when the thread id overloads the tag field", ErrBadTag)
		}
		if me > maxPackedThread {
			return comm.MatchSpec{}, fmt.Errorf("%w: thread %d", ErrThreadRange, me)
		}
		// Source-thread selection is lost: the header's only thread slot
		// carries the destination.
		return comm.MatchSpec{
			SrcPE:     src.PE,
			SrcProc:   src.Proc,
			SrcThread: comm.Any,
			Ctx:       comm.Any,
			Tag:       packTag(me, tag),
		}, nil
	}
	panic("core: unknown delivery mode")
}

// Irecv posts a nonblocking receive for a message from src with tag into
// buf and returns the completion handle (pthread_chanter_irecv). src fields
// and tag may be AnyField where the delivery mode permits.
func (t *Thread) Irecv(src GlobalID, tag int32, buf []byte) (*comm.RecvHandle, error) {
	t.mustCurrent("Irecv")
	if tag != AnyField {
		if err := checkUserTag(tag); err != nil {
			return nil, err
		}
	}
	spec, err := t.proc.recvSpec(t.gid.Thread, src, tag)
	if err != nil {
		return nil, err
	}
	host := t.proc.ep.Host()
	host.Charge(host.Model().HeaderPack)
	h := t.proc.ep.Irecv(spec, buf)
	t.proc.maybeSyncAck(t.gid.Thread, h)
	return h, nil
}

// Msgtest checks a nonblocking receive for completion
// (pthread_chanter_msgtest).
func (t *Thread) Msgtest(h *comm.RecvHandle) bool {
	t.mustCurrent("Msgtest")
	done := t.proc.ep.Test(h)
	if done {
		t.proc.maybeSyncAck(t.gid.Thread, h)
	}
	return done
}

// Msgwait blocks the calling thread until the receive completes, under the
// process's polling policy (pthread_chanter_msgwait).
func (t *Thread) Msgwait(h *comm.RecvHandle) {
	t.mustCurrent("Msgwait")
	t.proc.policy.Wait(h, noBoost)
	t.proc.maybeSyncAck(t.gid.Thread, h)
}

// MsgwaitTimeout blocks until the receive completes or timeout elapses.
// On expiry the receive is withdrawn and comm.ErrTimeout returned; a pinned
// source process declared dead surfaces as comm.ErrPeerDead. A nil return
// means the message arrived (h.Len/h.Header are valid).
func (t *Thread) MsgwaitTimeout(h *comm.RecvHandle, timeout sim.Duration) error {
	t.mustCurrent("MsgwaitTimeout")
	p := t.proc
	err := p.waitDeadline(h, p.ep.Host().Now().Add(timeout))
	if err == nil {
		p.maybeSyncAck(t.gid.Thread, h)
	}
	return err
}

// waitDeadline blocks the calling thread until h completes or the host
// clock reaches deadline. Unlike policy.Wait it must keep testing rather
// than park: when the awaited message was dropped by the network, no
// arrival will ever wake the waiter. Every missed test charges the cost
// model, which advances the simulated clock, and relaxes the host, which
// lets the real one's other PEs run, so the deadline is reached in finitely
// many steps in both execution modes.
func (p *Process) waitDeadline(h *comm.RecvHandle, deadline sim.Time) error {
	if p.ep.Test(h) {
		return h.Err()
	}
	host := p.ep.Host()
	t := p.sched.Current()
	beginWait(p.ep)
	defer endWait(p.ep, h)
	t.SetOnCancel(func() { p.ep.CancelRecv(h) })
	defer t.SetOnCancel(nil)
	for {
		p.sched.Yield()
		if p.ep.Test(h) {
			return h.Err()
		}
		if host.Now() >= deadline {
			if p.ep.TimeoutRecv(h) {
				return comm.ErrTimeout
			}
			// The message beat the withdrawal: the handle completed between
			// the last test and the timeout attempt.
			p.ep.Test(h)
			return h.Err()
		}
	}
}

// Recv blocks until a message from src with tag arrives in buf
// (pthread_chanter_recv). It returns the payload length and the sender's
// global identity.
func (t *Thread) Recv(src GlobalID, tag int32, buf []byte) (int, GlobalID, error) {
	h, err := t.Irecv(src, tag, buf)
	if err != nil {
		return 0, GlobalID{}, err
	}
	t.proc.policy.Wait(h, noBoost)
	t.proc.maybeSyncAck(t.gid.Thread, h)
	hdr := h.Header()
	from := GlobalID{PE: hdr.SrcPE, Proc: hdr.SrcProc, Thread: hdr.SrcThread}
	n, err := h.Len(), h.Err()
	t.proc.ep.ReleaseHandle(h) // h never escapes a blocking Recv
	return n, from, err
}

// recvInternal is the blocking receive used by runtime-internal traffic
// (termination handshake); it bypasses user-tag validation.
func (p *Process) recvInternal(t *Thread, src GlobalID, tag int32, buf []byte) (int, comm.Header) {
	spec, err := p.recvSpec(t.gid.Thread, src, tag)
	if err != nil {
		panic("core: internal recv spec: " + err.Error())
	}
	h := p.ep.Irecv(spec, buf)
	p.policy.Wait(h, noBoost)
	n, hdr := h.Len(), h.Header()
	p.ep.ReleaseHandle(h)
	return n, hdr
}

// startDispatcher creates the body-mode dispatcher: the "intermediate
// thread [that must] receive all incoming messages, decode the body, and
// forward the remaining message to the proper thread" — the design the
// paper rejects because of its copies, implemented here so the delivery
// ablation can measure exactly that cost.
func (p *Process) startDispatcher() {
	p.CreateLocal("chant-dispatch", func(t *Thread) {
		host := p.ep.Host()
		m := host.Model()
		buf := make([]byte, maxBodyMsg+bodyPrefixLen)
		spec := comm.MatchSpec{
			SrcPE:     comm.Any,
			SrcProc:   comm.Any,
			SrcThread: comm.Any,
			Ctx:       comm.Any,
			Tag:       tagBodyWire,
		}
		for {
			h := p.ep.Irecv(spec, buf)
			p.policy.Wait(h, noBoost)
			n := h.Len()
			hdr := h.Header()
			p.ep.ReleaseHandle(h)
			d := wire.NewDec(buf[:n])
			dstThread, srcThread, origTag, origFlags := d.I32(), d.I32(), d.I32(), d.I32()
			if d.Err() != nil {
				continue // no routing prefix, so nobody to deliver to: drop
			}
			// Copy on the receiving side "to extract the thread id".
			payload := make([]byte, d.Len())
			copy(payload, d.Rest())
			host.Charge(m.CopyCost(len(payload)))
			p.ep.DeliverLocal(&comm.Message{
				Hdr: comm.Header{
					SrcPE:     hdr.SrcPE,
					SrcProc:   hdr.SrcProc,
					SrcThread: srcThread,
					DstPE:     p.addr.PE,
					DstProc:   p.addr.Proc,
					Ctx:       dstThread,
					Tag:       origTag,
					Size:      int32(len(payload)),
					Flags:     origFlags,
				},
				Data:   payload,
				SentAt: host.Now(),
			})
		}
	}, ult.SpawnOpts{Daemon: true})
}
