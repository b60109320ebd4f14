package core

import (
	"errors"
	"fmt"
	"sort"

	"chant/internal/comm"
	"chant/internal/comm/simnet"
	"chant/internal/machine"
	"chant/internal/recovery"
	"chant/internal/sim"
	"chant/internal/trace"
	"chant/internal/ult"
	"chant/internal/wire"
)

// Coordinated checkpoints and crash recovery. The snapshot protocol is the
// classic marker-based coordinated snapshot run over the RSR layer: an
// initiator captures its own state and floods a marker RSR to every peer;
// a process receiving its first marker for a snapshot captures at that
// instant and floods markers itself; RSR requests arriving on a channel
// between the local capture and that channel's marker are the channel's
// in-flight content and are logged into the checkpoint. Markers travel as
// ordinary reliable Calls (retried, deduplicated), so lossy networks do not
// stall the snapshot.
//
// The captured state is what internal/recovery.Checkpoint holds: handler
// ids, shared-variable state, the epoch-aware RSR dedup cache, the pending
// unexpected queue, the trace counters, and the logged in-flight messages.
// Thread stacks are not captured: a restored process resumes as a server
// (its handlers plus the re-delivered messages), optionally running a
// restart main — see Runtime.OnRestart.

// Builtin handler ids of the recovery protocol (continuing the negative
// builtin id space after hChanBind).
const (
	hMarker int32 = -10
	hRejoin int32 = -11
)

// Errors of the checkpoint layer.
var (
	// ErrNoCheckpointStore reports a Checkpoint call on a machine configured
	// without a Config.CheckpointStore.
	ErrNoCheckpointStore = errors.New("core: no checkpoint store configured")
	// ErrSnapshotBusy reports a Checkpoint call while a coordinated snapshot
	// is already in progress at this process.
	ErrSnapshotBusy = errors.New("core: a coordinated snapshot is already in progress")
)

// snapState is one coordinated snapshot in progress at one process: the
// locally captured checkpoint awaiting its in-flight log, and the marker
// bookkeeping. Touched only from the process's own scheduler context.
type snapState struct {
	rec *recovery.Recorder
	cp  *recovery.Checkpoint
}

// Checkpoint initiates a coordinated snapshot of the whole machine from the
// calling thread and blocks until this process's part of it is complete
// (its own state captured, markers received on every channel) and archived
// in Config.CheckpointStore. Channels from peers declared dead are excused
// rather than awaited forever.
func (t *Thread) Checkpoint() error {
	t.mustCurrent("Checkpoint")
	p := t.proc
	if p.cfg.CheckpointStore == nil {
		return ErrNoCheckpointStore
	}
	if p.snap != nil {
		return ErrSnapshotBusy
	}
	p.snapCount++
	id := uint32(p.addr.PE)<<24 | uint32(p.addr.Proc)<<16 | p.snapCount&0xFFFF
	p.beginSnapshot(id)
	if p.snap == nil {
		return nil // single-process machine: done at capture
	}
	req := encodeMarker(id)
	for _, a := range p.peerAddrs() {
		// Best effort: a dead peer's channel is excused below.
		_, _ = t.Call(a, hMarker, req, nil)
	}
	host := p.ep.Host()
	miss := host.Model().MsgTestMiss
	for p.snap != nil && p.snap.rec.ID() == id {
		for _, a := range p.peerAddrs() {
			if p.snap.rec.Recording(a) && p.ep.PeerDead(a) && p.snap.rec.MarkerFrom(a) {
				p.finishSnapshot()
				break
			}
		}
		if p.snap == nil || p.snap.rec.ID() != id {
			break
		}
		// The outstanding markers arrive as requests to our server thread;
		// charge a test miss per spin so virtual time always advances.
		host.Charge(miss)
		t.Yield()
	}
	return nil
}

// RejoinedAt reports when this process's rejoin handshake finished (zero
// unless the process was restored from a checkpoint).
func (p *Process) RejoinedAt() sim.Time { return p.rejoinedAt }

// Epoch reports the process incarnation number (zero for a first run).
func (p *Process) Epoch() uint32 { return p.epoch }

// peerAddrs enumerates every other process of the topology in canonical
// (PE, Proc) order — the snapshot protocol's channel set.
func (p *Process) peerAddrs() []comm.Addr {
	addrs := p.rt.topo.Addrs()
	out := make([]comm.Addr, 0, len(addrs)-1)
	for _, a := range addrs {
		if a != p.addr {
			out = append(out, a)
		}
	}
	return out
}

// beginSnapshot captures this process's state and opens the recording
// windows. Runs synchronously on the capturing thread (the server thread
// for marker-triggered captures): the capture performs no yields, so the
// snapshot is a consistent instant of the cooperative schedule.
func (p *Process) beginSnapshot(id uint32) {
	var capBegin sim.Time
	tr := p.cfg.Tracer
	if tr != nil {
		capBegin = p.ep.Host().Now()
	}
	p.snap = &snapState{rec: recovery.NewRecorder(id, p.peerAddrs()), cp: p.captureCheckpoint()}
	if tr != nil {
		// The capture itself, not the whole recording window: the windows
		// stay open until every peer's marker arrives, which is RSR traffic
		// already covered by rsr-serve spans.
		tr.Span(trace.SpanCheckpoint, p.addr.PE, trace.EndpointTID,
			capBegin, p.ep.Host().Now(), uint64(id))
	}
	if p.snap.rec.Done() {
		p.finishSnapshot()
	}
}

// finishSnapshot attaches the in-flight log and archives the checkpoint.
func (p *Process) finishSnapshot() {
	snap := p.snap
	p.snap = nil
	snap.cp.InFlight = snap.rec.InFlight()
	if _, err := p.cfg.CheckpointStore.Put(snap.cp); err != nil {
		panic("core: checkpoint store: " + err.Error())
	}
	p.Counters().Checkpoints.Add(1)
}

// captureCheckpoint copies everything a restart needs out of the live
// process. Map walks feed slices that Normalize puts in canonical order, so
// identical states serialize identically.
func (p *Process) captureCheckpoint() *recovery.Checkpoint {
	host := p.ep.Host()
	cp := &recovery.Checkpoint{
		Addr:    p.addr,
		Epoch:   p.epoch,
		At:      host.Now(),
		NextReq: p.nextReq,
	}
	for id := range p.handlers {
		cp.Handlers = append(cp.Handlers, id)
	}
	for gid, rec := range p.rsrSeen {
		d := recovery.DedupState{
			SrcPE:     gid.PE,
			SrcProc:   gid.Proc,
			SrcThread: gid.Thread,
			Epoch:     rec.epoch,
			Seq:       rec.seq,
			ReplyTag:  rec.replyTag,
		}
		if rec.reply != nil {
			d.HasReply = true
			d.Reply = append([]byte(nil), rec.reply...)
		}
		cp.Dedup = append(cp.Dedup, d)
	}
	for name, e := range p.shared {
		s := recovery.SharedState{
			Name:    name,
			Value:   append([]byte(nil), e.value...),
			Version: e.version,
			Valid:   e.valid,
			Home:    e.home,
		}
		for a := range e.directory {
			s.Directory = append(s.Directory, a)
		}
		cp.Shared = append(cp.Shared, s)
	}
	p.ep.UnexpectedSnapshot(func(hdr comm.Header, data []byte, sentAt sim.Time) {
		cp.Unexpected = append(cp.Unexpected, recovery.CapturedMessage{
			Hdr:    hdr,
			Data:   append([]byte(nil), data...),
			SentAt: sentAt,
		})
	})
	cp.Counters = p.Counters().Snap(host.Now())
	cp.Normalize()
	return cp
}

// encodeMarker frames a marker request: [snapshot id u32].
func encodeMarker(id uint32) []byte {
	e := wire.NewEnc(4)
	e.U32(id)
	return e.Out()
}

// recordInFlight logs one arrived RSR request (handler is its decoded id,
// payload the whole envelope) into the open snapshot when its source
// channel is still recording. Marker and rejoin traffic is
// protocol, not application state, and is never logged.
func (p *Process) recordInFlight(hdr comm.Header, handler int32, payload []byte) {
	if p.snap == nil || handler == hMarker || handler == hRejoin {
		return
	}
	if p.snap.rec.Record(hdr, payload, p.ep.Host().Now()) {
		p.Counters().InFlightLogged.Add(1)
	}
}

// registerRecoveryHandlers installs the snapshot marker and rejoin
// handlers on every process.
func (p *Process) registerRecoveryHandlers() {
	p.handlers[hMarker] = func(ctx *RSRContext) ([]byte, error) {
		d := wire.NewDec(ctx.Req)
		id := d.U32()
		if d.Err() != nil {
			return nil, fmt.Errorf("%w: snapshot marker", errMalformed)
		}
		if p.cfg.CheckpointStore == nil {
			return nil, ErrNoCheckpointStore
		}
		src := ctx.Src.Addr()
		if p.snap == nil || p.snap.rec.ID() != id {
			// First marker of this snapshot: capture here and now, then
			// flood markers from a proxy thread (the flood Calls block; the
			// server must keep serving — markers included). A stale snapshot
			// still open from an abandoned earlier id is superseded.
			p.beginSnapshot(id)
			req := encodeMarker(id)
			proxy := p.CreateLocal("ckpt-flood", func(ft *Thread) {
				for _, a := range p.peerAddrs() {
					_, _ = ft.Call(a, hMarker, req, nil) // dead peers excused by initiator
				}
			}, ult.SpawnOpts{})
			proxy.Detach()
		}
		if p.snap != nil && p.snap.rec.ID() == id && p.snap.rec.MarkerFrom(src) {
			p.finishSnapshot()
		}
		return nil, nil
	}

	p.handlers[hRejoin] = func(ctx *RSRContext) ([]byte, error) {
		src := ctx.Src.Addr()
		// Flush dedup records of the peer's earlier incarnations: the
		// epoch comparison would reject them anyway, but dropping them keeps
		// the cache from accumulating one entry per pre-crash client thread.
		stale := make([]GlobalID, 0)
		//chant:allow-nondet collection only; keys are sorted before any effect
		for gid, rec := range p.rsrSeen {
			if gid.Addr() == src && int32(ctx.epoch-rec.epoch) > 0 {
				stale = append(stale, gid)
			}
		}
		sort.Slice(stale, func(i, j int) bool { return stale[i].Thread < stale[j].Thread })
		for _, gid := range stale {
			delete(p.rsrSeen, gid)
		}
		p.ep.MarkPeerAlive(src)
		p.Counters().RejoinsServed.Add(1)
		return nil, nil
	}
}

// --- Restore and restart ---

// nextEpoch hands out the next incarnation number for addr: one past both
// the checkpoint's epoch and any epoch this runtime already issued, so
// epochs stay strictly monotonic even when a restart reads a stale (or no)
// checkpoint.
func (rt *Runtime) nextEpoch(addr comm.Addr, cpEpoch uint32) uint32 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e := rt.epochs[addr]
	if cpEpoch > e {
		e = cpEpoch
	}
	e++
	rt.epochs[addr] = e
	return e
}

// Restore builds a process at cp.Addr from a checkpoint: handlers are
// re-registered (and validated against the checkpoint's handler list), the
// RSR dedup cache, sequence counter, shared-variable state, and trace
// counters are restored, the epoch is bumped past the checkpoint's, and the
// checkpoint's pending and in-flight messages are re-delivered into the new
// endpoint's mailbox — the server thread consumes them once the process
// runs, with the restored dedup cache suppressing anything already served
// (exactly-once across the restart).
func (rt *Runtime) Restore(cp *recovery.Checkpoint, host machine.Host, ctrs *trace.Counters, ep *comm.Endpoint) (*Process, error) {
	addr := cp.Addr
	if !rt.validAddr(addr) {
		return nil, fmt.Errorf("%w: checkpoint for %v", ErrBadTarget, addr)
	}
	var restoreBegin sim.Time
	if tr := rt.cfg.Tracer; tr != nil {
		restoreBegin = host.Now()
		defer func() {
			tr.Span(trace.SpanRestore, addr.PE, trace.EndpointTID,
				restoreBegin, host.Now(), uint64(cp.Epoch))
		}()
	}
	p := newProcess(rt, addr, host, ctrs, ep, rt.cfg)
	for _, id := range cp.Handlers {
		if p.handlers[id] == nil {
			return nil, fmt.Errorf("core: checkpoint for %v names handler %d, which is not registered in this runtime", addr, id)
		}
	}
	p.epoch = rt.nextEpoch(addr, cp.Epoch)
	p.nextReq = cp.NextReq
	for i := range cp.Dedup {
		d := &cp.Dedup[i]
		rec := &rsrDedup{epoch: d.Epoch, seq: d.Seq, replyTag: d.ReplyTag}
		if d.HasReply {
			rec.reply = append([]byte(nil), d.Reply...)
		}
		p.rsrSeen[GlobalID{PE: d.SrcPE, Proc: d.SrcProc, Thread: d.SrcThread}] = rec
	}
	if len(cp.Shared) > 0 {
		p.shared = make(map[string]*sharedEntry, len(cp.Shared))
		for i := range cp.Shared {
			s := &cp.Shared[i]
			e := &sharedEntry{
				value:   append([]byte(nil), s.Value...),
				version: s.Version,
				valid:   s.Valid,
				home:    s.Home,
			}
			if s.Home {
				e.directory = make(map[comm.Addr]struct{}, len(s.Directory))
				for _, a := range s.Directory {
					e.directory[a] = struct{}{}
				}
				e.writeLock = ult.NewMutex(p.sched)
			}
			p.shared[s.Name] = e
		}
	}
	ctrs.Preload(cp.Counters)
	ctrs.Restarts.Add(1)
	rt.mu.Lock()
	rt.procs[addr] = p
	rt.mu.Unlock()
	// Re-deliver the checkpoint's message log before any thread runs: first
	// the queue pending at capture, then the recorded in-flight messages, in
	// their original arrival orders.
	for _, m := range cp.Unexpected {
		ep.DeliverLocal(capturedToMessage(m))
	}
	for _, m := range cp.InFlight {
		ep.DeliverLocal(capturedToMessage(m))
	}
	ctrs.InFlightReplayed.Add(uint64(len(cp.InFlight)))
	return p, nil
}

// capturedToMessage rebuilds a deliverable message from its checkpoint
// record. The payload is copied: a restore may be replayed from the same
// checkpoint more than once.
func capturedToMessage(m recovery.CapturedMessage) *comm.Message {
	return &comm.Message{
		Hdr:    m.Hdr,
		Data:   append([]byte(nil), m.Data...),
		SentAt: m.SentAt,
	}
}

// OnRestart installs a main to run on addr after a crash recovery, once
// the process is restored and has rejoined its peers. Without one, a
// restored process just serves requests until the machine's termination
// handshake releases it. Must be called before Run.
func (rt *Runtime) OnRestart(addr comm.Addr, main MainFunc) {
	if !rt.validAddr(addr) {
		panic(fmt.Sprintf("core: OnRestart for %v: no such process", addr))
	}
	rt.restartMains[addr] = main
}

// rejoinPeers announces this process's new incarnation to every peer (the
// epoch travels in the RSR envelope): each peer flushes the old
// incarnation's dedup state and clears its dead mark, unblocking Calls that
// were waiting out the outage (Config.RejoinWait). Best effort: peers that
// are themselves dead are skipped by the Call failure path.
func (rt *Runtime) rejoinPeers(t *Thread) {
	p := t.proc
	for _, a := range p.peerAddrs() {
		_, _ = t.Call(a, hRejoin, nil, nil)
	}
	p.rejoinedAt = p.ep.Host().Now()
}

// restartMain is the main body of a restored process: the rejoin handshake,
// then the user's restart main, if any.
func (rt *Runtime) restartMain(addr comm.Addr) MainFunc {
	userMain := rt.restartMains[addr]
	return func(t *Thread) {
		rt.rejoinPeers(t)
		if userMain != nil {
			userMain(t)
		}
	}
}

// noteRunErr records a process main's error, excusing the ult.ErrKilled a
// scheduled crash inflicts on a PE that is going to recover (its restarted
// incarnation reports its own errors).
func (rt *Runtime) noteRunErr(perr []error, i int, addr comm.Addr, err error) {
	if err == nil {
		return
	}
	if rt.willRecover[addr] && errors.Is(err, ult.ErrKilled) {
		return
	}
	perr[i] = fmt.Errorf("%v: %w", addr, err)
}

// restoreSim builds the restarted process for addr: from the latest
// checkpoint when the store has one, cold (fresh state, bumped epoch)
// otherwise.
func (rt *Runtime) restoreSim(addr comm.Addr, host machine.Host, ctrs *trace.Counters, ep *comm.Endpoint) (*Process, error) {
	if rt.cfg.CheckpointStore != nil {
		cp, _, err := rt.cfg.CheckpointStore.Latest(addr)
		if err == nil {
			return rt.Restore(cp, host, ctrs, ep)
		}
		if !errors.Is(err, recovery.ErrNoCheckpoint) {
			return nil, err
		}
	}
	p := newProcess(rt, addr, host, ctrs, ep, rt.cfg)
	p.epoch = rt.nextEpoch(addr, 0)
	ctrs.Restarts.Add(1)
	rt.mu.Lock()
	rt.procs[addr] = p
	rt.mu.Unlock()
	return p, nil
}

// restartPE restarts every process of a crashed PE at the scheduled
// recovery instant. It runs as a kernel callback, so the network registry
// swap (simnet.Rebind) happens between events: the new endpoints and
// processes are installed before any later send is decided. Messages that
// were bound to the dead incarnation's endpoint stay with it and are lost,
// exactly like traffic in a real wire when its host dies; the RSR retry
// layer re-covers them.
func (rt *Runtime) restartPE(kernel *sim.Kernel, net *simnet.Network, pe int32, perr []error) {
	for i, addr := range rt.topo.Addrs() {
		if addr.PE != pe {
			continue
		}
		i, addr := i, addr
		var host *machine.SimHost
		var ep *comm.Endpoint
		ctrs := &trace.Counters{}
		sp := kernel.Spawn(addr.String(), func(p *sim.Proc) {
			proc, err := rt.restoreSim(addr, host, ctrs, ep)
			if err != nil {
				perr[i] = fmt.Errorf("%v: restart: %w", addr, err)
				return
			}
			if err := proc.run(rt.wrapMain(addr, rt.restartMain(addr))); err != nil {
				rt.noteRunErr(perr, i, addr, err)
			}
		})
		// The proc body only runs at its own start event; binding the host
		// and endpoint here, inside the restart callback, makes every send
		// decided after the restart instant reach the new incarnation.
		host = machine.NewSimHost(sp, rt.model)
		ep = net.Rebind(addr, host, ctrs)
	}
}
