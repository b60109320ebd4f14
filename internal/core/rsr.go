package core

import (
	"errors"
	"fmt"

	"chant/internal/comm"
	"chant/internal/sim"
	"chant/internal/trace"
	"chant/internal/ult"
	"chant/internal/wire"
)

// The remote-service-request layer (paper Section 3.2): messages whose
// destination thread is not expecting them are routed to a dedicated
// server thread, which repeatedly posts a nonblocking receive for any RSR
// message, waits under the normal polling policy (so no interrupts are
// ever required — Figure 7), assumes a higher scheduling priority when a
// request arrives, decodes the handler id from the request, and invokes
// the registered handler.

// Handler services one remote request. It runs on the server thread; a
// handler that must block should call ctx.DeferReply, hand the work to a
// spawned thread, and have that thread call ctx.Reply, so the server can
// keep serving.
type Handler func(ctx *RSRContext) ([]byte, error)

// RSRContext carries one request through its handler.
type RSRContext struct {
	Proc *Process
	// Src is the requesting thread's global identity.
	Src GlobalID
	// Req is the request payload. Valid only until the handler returns;
	// deferred repliers must copy what they need.
	Req []byte

	wantReply bool
	replyTag  int32
	seq       uint32
	epoch     uint32
	deferred  bool
	replied   bool
}

// rsrDedup is the per-source idempotency record: the most recent request
// (epoch, sequence) seen from one client thread and, once sent, its reply.
// A retried request with the same sequence is answered from the cache
// instead of re-running the handler — the property that makes timeouts plus
// resends safe for non-idempotent handlers like create. The epoch orders
// request streams across client restarts (a restarted client's sequence
// counter may restart too).
type rsrDedup struct {
	epoch    uint32
	seq      uint32
	replyTag int32
	reply    []byte // cached reply wire; nil while a deferred reply is pending
}

// rsrVerdict classifies an incoming call against its source's dedup record.
type rsrVerdict int

const (
	rsrFresh rsrVerdict = iota // new request: record it and run the handler
	rsrDup                     // retransmission of the latest request: replay the cache
	rsrStale                   // older than the latest request: drop silently
)

// admitRSR is the epoch-aware dedup rule. A request from a higher epoch than
// the record is always fresh — the client restarted, and its post-restart
// stream supersedes everything before (even if its restored sequence counter
// re-covers old numbers). One from a lower epoch is always stale. Within an
// epoch, sequence comparison decides as before (serial-number arithmetic, so
// wraparound is harmless).
func admitRSR(rec *rsrDedup, epoch, seq uint32) rsrVerdict {
	if rec == nil {
		return rsrFresh
	}
	if epoch != rec.epoch {
		if int32(epoch-rec.epoch) > 0 {
			return rsrFresh
		}
		return rsrStale
	}
	switch {
	case seq == rec.seq:
		return rsrDup
	case int32(seq-rec.seq) < 0:
		return rsrStale
	}
	return rsrFresh
}

// DeferReply tells the server not to reply when the handler returns;
// the handler (or a thread it spawned) must call Reply itself.
func (c *RSRContext) DeferReply() { c.deferred = true }

// Reply sends the response for a deferred request. Calling it twice, or
// for a request that wanted no reply, panics.
func (c *RSRContext) Reply(data []byte, err error) {
	if !c.wantReply {
		if err == nil {
			panic("core: Reply to a notification (no reply wanted)")
		}
		return // errors on notifications are dropped, as with NX
	}
	if c.replied {
		panic("core: duplicate RSR reply")
	}
	c.replied = true
	payload := encodeReply(c.seq, data, err)
	// Cache the reply for idempotent retry — but only while this request is
	// still the source's latest (a deferred reply may land after the client
	// has moved on).
	if rec := c.Proc.rsrSeen[c.Src]; rec != nil && rec.epoch == c.epoch && rec.seq == c.seq {
		rec.reply = payload
	}
	srcThread := serverLocalID
	if cur := c.Proc.sched.Current(); cur != nil {
		srcThread = cur.ID()
	}
	if sendErr := c.Proc.send(srcThread, c.Src, c.replyTag, payload); sendErr != nil {
		panic("core: RSR reply send failed: " + sendErr.Error())
	}
}

// RegisterHandler binds a user handler id (>= 0) to fn for this process.
// Handlers must be registered before requests arrive (normally in main
// before any Call targets this process).
func (p *Process) RegisterHandler(id int32, fn Handler) {
	if id < 0 {
		panic("core: user RSR handler ids must be >= 0")
	}
	p.handlers[id] = fn
}

// Errors of the RSR layer.
var (
	// ErrNoHandler reports a request for an unregistered handler id.
	ErrNoHandler = errors.New("core: no such RSR handler")
	// ErrRSRTooLarge reports a request exceeding Config.MaxRSR.
	ErrRSRTooLarge = errors.New("core: remote service request too large")
	// ErrRemote wraps an error string returned by a remote handler.
	ErrRemote = errors.New("core: remote error")
	// ErrRSRTimeout reports a Call that exhausted its retry budget without
	// ever seeing a reply (Config.RSRTimeout / RSRRetries).
	ErrRSRTimeout = errors.New("core: remote service request timed out")
)

// rsrHeaderLen is the request envelope sendRSR writes and serveOne reads:
// [handler i32][flags u8][reply tag i32][seq u32][sender epoch u32].
const rsrHeaderLen = 17

// rsrReplyPrefix is the reply envelope before the status byte: the echoed
// request sequence, which lets a client discard stale replies matched by a
// reused reply tag.
const rsrReplyPrefix = 4

const rsrFlagWantReply = 1

// Call issues a remote service request to process dst and blocks until the
// reply arrives (the remote-procedure-call shape of Section 3.2). The
// reply payload is written into replyBuf; Call returns its length. The
// reply receive is posted before the request is sent, so the response is
// never an unexpected message.
//
// When Config.RSRTimeout is set, Call becomes a stop-and-wait reliable
// request: an attempt whose reply does not arrive in time is resent (same
// sequence number, so the server deduplicates) up to Config.RSRRetries
// times, after which Call returns ErrRSRTimeout. A destination declared
// dead surfaces as comm.ErrPeerDead.
func (t *Thread) Call(dst comm.Addr, handler int32, req, replyBuf []byte) (int, error) {
	t.mustCurrent("Call")
	p := t.proc
	if !p.rt.validAddr(dst) {
		return 0, fmt.Errorf("%w: %v", ErrBadTarget, dst)
	}
	if len(req)+rsrHeaderLen > p.cfg.MaxRSR {
		return 0, fmt.Errorf("%w: %d bytes", ErrRSRTooLarge, len(req))
	}
	if tr := p.cfg.Tracer; tr != nil {
		// One span per Call, issue to decoded reply (or terminal error),
		// covering retries and rejoin waits. RSR is control plane, so the
		// deferred closure is off every data hot path.
		callBegin := p.ep.Host().Now()
		defer func() {
			tr.Span(trace.SpanRSRCall, p.addr.PE, t.gid.Thread,
				callBegin, p.ep.Host().Now(), uint64(uint32(handler)))
		}()
	}
	p.nextReq++
	replyTag := tagReplyBase + p.nextReq%tagReplySpan
	seq := uint32(p.nextReq)

	// Pre-post the reply receive (no-extra-copy path).
	spec, err := p.recvSpec(t.gid.Thread, GlobalID{PE: dst.PE, Proc: dst.Proc, Thread: AnyField}, replyTag)
	if err != nil {
		return 0, err
	}
	// The reply carries a sequence + status prefix.
	rbuf := make([]byte, len(replyBuf)+rsrReplyPrefix+1+256)
	h := p.ep.Irecv(spec, rbuf)

	if err := p.sendRSR(t.gid.Thread, dst, handler, rsrFlagWantReply, replyTag, seq, req); err != nil {
		p.ep.CancelRecv(h)
		p.ep.ReleaseHandle(h)
		return 0, err
	}
	p.Counters().RSRSent.Add(1)

	if p.cfg.RSRTimeout <= 0 {
		// Reliable-network path: block until the reply arrives.
		p.policy.Wait(h, noBoost)
	} else {
		host := p.ep.Host()
		backoff := p.cfg.RSRBackoff
		var rejoinDeadline sim.Time
		for attempt := 0; ; {
			werr := p.waitDeadline(h, host.Now().Add(p.cfg.RSRTimeout))
			if werr == nil {
				// A reused reply tag can match a stale reply from an earlier,
				// abandoned Call; the echoed sequence exposes it. Repost and
				// keep waiting — the stale bytes are simply overwritten.
				if d := wire.NewDec(rbuf[:h.Len()]); d.U32() != seq && d.Err() == nil {
					p.ep.ReleaseHandle(h)
					h = p.ep.Irecv(spec, rbuf)
					continue
				}
				break
			}
			if errors.Is(werr, comm.ErrPeerDead) {
				if p.cfg.RejoinWait <= 0 {
					p.ep.ReleaseHandle(h)
					return 0, werr
				}
				if rejoinDeadline == 0 {
					rejoinDeadline = host.Now().Add(p.cfg.RejoinWait)
				}
				if host.Now() >= rejoinDeadline {
					p.ep.ReleaseHandle(h)
					return 0, werr
				}
				// The peer may be restarting (crash recovery): the born-failed
				// handle completed instantly, so burn one timeout of compute to
				// advance time, then repost and resend the same sequence — the
				// rejoined peer's restored dedup cache keeps this exactly-once.
				// Waiting out a rejoin does not consume the retry budget. The
				// yield is essential: the peer's rejoin announcement arrives as
				// a request to this process's server thread, which must get the
				// processor to serve it and clear the dead mark.
				host.Charge(p.cfg.RSRTimeout)
				t.Yield()
				p.ep.ReleaseHandle(h)
				h = p.ep.Irecv(spec, rbuf)
				if err := p.sendRSR(t.gid.Thread, dst, handler, rsrFlagWantReply, replyTag, seq, req); err != nil {
					p.ep.CancelRecv(h)
					p.ep.ReleaseHandle(h)
					return 0, err
				}
				continue
			}
			if attempt >= p.cfg.RSRRetries {
				p.Counters().RSRTimeouts.Add(1)
				p.ep.ReleaseHandle(h)
				return 0, fmt.Errorf("%w: handler %d at %v after %d attempts",
					ErrRSRTimeout, handler, dst, attempt+1)
			}
			attempt++
			p.Counters().RSRRetries.Add(1)
			if backoff > 0 {
				host.Charge(backoff)
				backoff *= 2
			}
			p.ep.ReleaseHandle(h)
			h = p.ep.Irecv(spec, rbuf)
			if err := p.sendRSR(t.gid.Thread, dst, handler, rsrFlagWantReply, replyTag, seq, req); err != nil {
				p.ep.CancelRecv(h)
				p.ep.ReleaseHandle(h)
				return 0, err
			}
		}
	}
	n := h.Len()
	p.ep.ReleaseHandle(h) // the reply lives in rbuf; h never escapes Call
	data, remoteErr := decodeReply(rbuf[:n])
	if remoteErr != nil {
		return 0, remoteErr
	}
	if len(data) > len(replyBuf) {
		return 0, comm.ErrTruncated
	}
	return copy(replyBuf, data), nil
}

// Notify issues a one-way remote service request: no reply is awaited.
func (t *Thread) Notify(dst comm.Addr, handler int32, req []byte) error {
	t.mustCurrent("Notify")
	p := t.proc
	if !p.rt.validAddr(dst) {
		return fmt.Errorf("%w: %v", ErrBadTarget, dst)
	}
	if len(req)+rsrHeaderLen > p.cfg.MaxRSR {
		return fmt.Errorf("%w: %d bytes", ErrRSRTooLarge, len(req))
	}
	if err := p.sendRSR(t.gid.Thread, dst, handler, 0, 0, 0, req); err != nil {
		return err
	}
	p.Counters().RSRSent.Add(1)
	return nil
}

// sendRSR transmits one request envelope to dst's server thread. seq is 0
// for notifications; calls carry their per-client sequence for idempotent
// retry.
func (p *Process) sendRSR(srcThread int32, dst comm.Addr, handler int32, flags byte, replyTag int32, seq uint32, req []byte) error {
	e := wire.NewEnc(rsrHeaderLen + len(req))
	e.I32(handler)
	e.U8(flags)
	e.I32(replyTag)
	e.U32(seq)
	e.U32(p.epoch)
	e.Raw(req)
	return p.send(srcThread, GlobalID{PE: dst.PE, Proc: dst.Proc, Thread: serverLocalID}, tagRSRRequest, e.Out())
}

// startServer creates the server thread (Figure 7). It must be the first
// thread created after main so it owns the well-known local id.
func (p *Process) startServer() {
	p.server = p.CreateLocal("chant-server", func(t *Thread) {
		host := p.ep.Host()
		m := host.Model()
		buf := make([]byte, p.cfg.MaxRSR)
		for {
			// Drop back to normal priority while awaiting the next request.
			t.tcb.SetPriority(0)
			spec, err := p.recvSpec(serverLocalID, AnyThread, tagRSRRequest)
			if err != nil {
				panic("core: server recv spec: " + err.Error())
			}
			h := p.ep.Irecv(spec, buf)
			// The boost: when the request is noticed by the scheduler, the
			// server jumps to the head of the line. A negative configured
			// priority disables it.
			boost := p.cfg.ServerPriority
			if boost < 0 {
				boost = noBoost
			}
			p.policy.Wait(h, boost)
			var serveBegin sim.Time
			tr := p.cfg.Tracer
			if tr != nil {
				serveBegin = host.Now()
			}
			host.Charge(m.RSRDispatch)
			p.Counters().RSRRequests.Add(1)
			hdr, n := h.Header(), h.Len()
			p.ep.ReleaseHandle(h)
			p.serveOne(hdr, buf[:n])
			if tr != nil {
				d := wire.NewDec(buf[:n])
				tr.Span(trace.SpanRSRServe, p.addr.PE, serverLocalID,
					serveBegin, host.Now(), uint64(d.U32()))
			}
		}
	}, ult.SpawnOpts{Daemon: true})
	if p.server.gid.Thread != serverLocalID {
		panic(fmt.Sprintf("core: server thread got id %d, want %d (created too late)",
			p.server.gid.Thread, serverLocalID))
	}
}

// serveOne decodes and dispatches a single request.
func (p *Process) serveOne(hdr comm.Header, payload []byte) {
	d := wire.NewDec(payload)
	id := d.I32()
	src := GlobalID{PE: hdr.SrcPE, Proc: hdr.SrcProc, Thread: hdr.SrcThread}
	ctx := &RSRContext{
		Proc:      p,
		Src:       src,
		wantReply: d.U8()&rsrFlagWantReply != 0,
		replyTag:  d.I32(),
		seq:       d.U32(),
		epoch:     d.U32(),
		Req:       d.Rest(),
	}
	if d.Err() != nil {
		return // no envelope, so no reply tag to answer on: drop
	}
	// An open coordinated snapshot logs requests arriving on channels whose
	// marker has not come yet — the channel's in-flight content.
	p.recordInFlight(hdr, id, payload)
	if ctx.wantReply && ctx.seq != 0 {
		rec := p.rsrSeen[src]
		switch admitRSR(rec, ctx.epoch, ctx.seq) {
		case rsrDup:
			// Retransmission of the request being (or already) served:
			// replay the cached reply rather than re-running the handler.
			// If the reply is still pending (deferred), drop — the
			// client's next resend will find the cache filled.
			p.Counters().RSRDupsServed.Add(1)
			if rec.reply != nil {
				srcThread := serverLocalID
				if cur := p.sched.Current(); cur != nil {
					srcThread = cur.ID()
				}
				_ = p.send(srcThread, src, rec.replyTag, rec.reply)
			}
			return
		case rsrStale:
			return // straggler from an abandoned earlier Call or epoch; drop
		}
		p.rsrSeen[src] = &rsrDedup{epoch: ctx.epoch, seq: ctx.seq, replyTag: ctx.replyTag}
	}
	handler := p.handlers[id]
	if handler == nil {
		if ctx.wantReply {
			ctx.Reply(nil, ErrNoHandler)
		}
		return
	}
	data, err := handler(ctx)
	if ctx.wantReply && !ctx.deferred && !ctx.replied {
		ctx.Reply(data, err)
	}
}

// encodeReply frames a reply as [seq u32][status u8][data | error string].
func encodeReply(seq uint32, data []byte, err error) []byte {
	status := byte(0)
	if err != nil {
		status, data = 1, []byte(err.Error())
	}
	e := wire.NewEnc(rsrReplyPrefix + 1 + len(data))
	e.U32(seq)
	e.U8(status)
	e.Raw(data)
	return e.Out()
}

// decodeReply unframes a reply, converting a remote error string back into
// an error wrapping ErrRemote.
func decodeReply(reply []byte) ([]byte, error) {
	d := wire.NewDec(reply)
	d.U32() // the sequence; Call has already matched it
	failed, body := d.U8() != 0, d.Rest()
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: empty reply", ErrRemote)
	}
	if failed {
		return nil, fmt.Errorf("%w: %s", ErrRemote, body)
	}
	return body, nil
}
