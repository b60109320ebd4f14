package core

import (
	"errors"
	"fmt"

	"chant/internal/comm"
	"chant/internal/ult"
	"chant/internal/wire"
)

// Global thread operations (paper Section 3.3): primitives affected by
// global identifiers — create, join, cancel, detach — handle remote targets
// by sending a remote service request to the target process, "similar to
// how Unix creates a process on a remote machine". Local targets take the
// local fast path directly.

// Builtin handler ids (negative; user ids are >= 0).
const (
	hCreate int32 = -1
	hJoin   int32 = -2
	hCancel int32 = -3
	hDetach int32 = -4
	hPing   int32 = -5
)

// ThreadFunc is a registered thread body that remote creates can name.
// Code cannot travel between address spaces, so — as in every RPC system —
// both sides agree on names bound via Runtime.Register.
type ThreadFunc func(t *Thread, arg []byte)

// CreateOpts configures remote or local creation through Create.
type CreateOpts struct {
	// Priority for the new thread (default 0).
	Priority int
	// Detached marks the thread detached at birth.
	Detached bool
}

// ErrNoFunc reports a Create naming an unregistered thread function.
var ErrNoFunc = errors.New("core: no registered thread function with that name")

// ErrNoThread reports a global operation on a thread id that is not alive
// in its process.
var ErrNoThread = errors.New("core: no such thread")

// Create creates a thread running the registered function name with arg in
// the given processing element and process, which may be the caller's own
// (pthread_chanter_create; "which may be LOCAL"). It returns the new
// thread's global identifier.
func (t *Thread) Create(pe, proc int32, name string, arg []byte, opts CreateOpts) (GlobalID, error) {
	t.mustCurrent("Create")
	dst := comm.Addr{PE: pe, Proc: proc}
	if !t.proc.rt.validAddr(dst) {
		return GlobalID{}, fmt.Errorf("%w: %v", ErrBadTarget, dst)
	}
	if dst == t.proc.addr {
		nt, err := t.proc.createByName(name, arg, opts)
		if err != nil {
			return GlobalID{}, err
		}
		return nt.gid, nil
	}
	req, err := encodeCreate(name, arg, opts)
	if err != nil {
		return GlobalID{}, err
	}
	var reply [4]byte
	n, err := t.Call(dst, hCreate, req, reply[:])
	if err != nil {
		return GlobalID{}, err
	}
	d := wire.NewDec(reply[:n])
	local := d.I32()
	if d.End() != nil {
		return GlobalID{}, fmt.Errorf("core: malformed create reply (%d bytes)", n)
	}
	return GlobalID{PE: pe, Proc: proc, Thread: local}, nil
}

// Join blocks until the thread named target exits and returns its exit
// value (pthread_chanter_join). Values crossing address spaces are limited
// to []byte, string, integers, and nil; remote joins of other types return
// their string rendering.
func (t *Thread) Join(target GlobalID) (any, error) {
	t.mustCurrent("Join")
	if target.Addr() == t.proc.addr {
		lt, ok := t.proc.Lookup(target.Thread)
		if !ok {
			return nil, fmt.Errorf("%w: %v", ErrNoThread, target)
		}
		return t.JoinLocal(lt)
	}
	reply := make([]byte, t.proc.cfg.MaxRSR)
	n, err := t.Call(target.Addr(), hJoin, encodeThreadID(target.Thread), reply)
	if err != nil {
		return nil, err
	}
	return decodeJoinValue(reply[:n])
}

// Cancel requests that the thread named target exit as if it had called
// Exit (pthread_chanter_cancel).
func (t *Thread) Cancel(target GlobalID) error {
	t.mustCurrent("Cancel")
	if target.Addr() == t.proc.addr {
		lt, ok := t.proc.Lookup(target.Thread)
		if !ok {
			return nil // already gone: cancel of a finished thread is a no-op
		}
		t.proc.sched.Cancel(lt.tcb)
		return nil
	}
	_, err := t.Call(target.Addr(), hCancel, encodeThreadID(target.Thread), nil)
	return err
}

// DetachGlobal marks the thread named target detached
// (pthread_chanter_detach for an arbitrary global thread).
func (t *Thread) DetachGlobal(target GlobalID) error {
	t.mustCurrent("DetachGlobal")
	if target.Addr() == t.proc.addr {
		lt, ok := t.proc.Lookup(target.Thread)
		if !ok {
			return fmt.Errorf("%w: %v", ErrNoThread, target)
		}
		lt.tcb.Detach()
		if lt.tcb.State() == ult.Done {
			t.proc.unregister(lt)
		}
		return nil
	}
	_, err := t.Call(target.Addr(), hDetach, encodeThreadID(target.Thread), nil)
	return err
}

// Ping round-trips an empty request through dst's server thread; useful for
// liveness checks and as the minimal RSR cost probe.
func (t *Thread) Ping(dst comm.Addr) error {
	t.mustCurrent("Ping")
	_, err := t.Call(dst, hPing, nil, nil)
	return err
}

// threadReq resolves the [local thread i32] request join, cancel and detach
// carry: the thread, ErrNoThread if it is gone, or errMalformed.
func (p *Process) threadReq(ctx *RSRContext) (*Thread, error) {
	d := wire.NewDec(ctx.Req)
	local := d.I32()
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: thread id of %d bytes", errMalformed, len(ctx.Req))
	}
	if lt, ok := p.Lookup(local); ok {
		return lt, nil
	}
	return nil, fmt.Errorf("%w: thread %d", ErrNoThread, local)
}

// createByName runs the local side of Create.
func (p *Process) createByName(name string, arg []byte, opts CreateOpts) (*Thread, error) {
	fn := p.rt.lookupFunc(name)
	if fn == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoFunc, name)
	}
	argCopy := make([]byte, len(arg))
	copy(argCopy, arg)
	nt := p.CreateLocal(name, func(t *Thread) { fn(t, argCopy) }, ult.SpawnOpts{Priority: opts.Priority})
	if opts.Detached {
		nt.tcb.Detach()
	}
	return nt, nil
}

// registerBuiltinHandlers installs the global-operation handlers every
// process serves.
func (p *Process) registerBuiltinHandlers() {
	p.handlers[hPing] = func(ctx *RSRContext) ([]byte, error) { return nil, nil }

	p.handlers[hCreate] = func(ctx *RSRContext) ([]byte, error) {
		name, arg, opts, err := decodeCreate(ctx.Req)
		if err != nil {
			return nil, err
		}
		nt, err := p.createByName(name, arg, opts)
		if err != nil {
			return nil, err
		}
		return encodeThreadID(nt.gid.Thread), nil
	}

	p.handlers[hJoin] = func(ctx *RSRContext) ([]byte, error) {
		lt, err := p.threadReq(ctx)
		if err != nil {
			return nil, err
		}
		// Joining blocks, and the server must keep serving: hand the join
		// to a proxy thread and defer the reply (paper Section 3.3).
		ctx.DeferReply()
		proxy := p.CreateLocal("join-proxy", func(proxy *Thread) {
			v, err := proxy.JoinLocal(lt)
			if err != nil {
				ctx.Reply(nil, err)
				return
			}
			ctx.Reply(encodeJoinValue(v), nil)
		}, ult.SpawnOpts{})
		proxy.Detach()
		return nil, nil
	}

	p.handlers[hCancel] = func(ctx *RSRContext) ([]byte, error) {
		switch lt, err := p.threadReq(ctx); {
		case err == nil:
			p.sched.Cancel(lt.tcb)
		case !errors.Is(err, ErrNoThread): // cancel of a finished thread is a no-op
			return nil, err
		}
		return nil, nil
	}

	p.handlers[hDetach] = func(ctx *RSRContext) ([]byte, error) {
		lt, err := p.threadReq(ctx)
		if err != nil {
			return nil, err
		}
		lt.tcb.Detach()
		if lt.tcb.State() == ult.Done {
			p.unregister(lt)
		}
		return nil, nil
	}
}

// --- wire encodings ---

// errMalformed is the error reply to a builtin request that does not decode.
var errMalformed = errors.New("core: malformed request")

// putGID and getGID are the one encoding of a global thread id:
// [pe i32][proc i32][thread i32].
func putGID(e *wire.Enc, g GlobalID) { e.I32(g.PE); e.I32(g.Proc); e.I32(g.Thread) }

func getGID(d *wire.Dec) GlobalID { return GlobalID{PE: d.I32(), Proc: d.I32(), Thread: d.I32()} }

// encodeThreadID frames the [local thread i32] that join, cancel and detach
// requests and the create reply carry.
func encodeThreadID(local int32) []byte {
	e := wire.NewEnc(4)
	e.I32(local)
	return e.Out()
}

// encodeCreate frames [detached u8][priority i32][name str16][arg raw].
func encodeCreate(name string, arg []byte, opts CreateOpts) ([]byte, error) {
	e := wire.NewEnc(7 + len(name) + len(arg))
	e.Bool(opts.Detached)
	e.I32(int32(opts.Priority))
	e.Str16(name)
	e.Raw(arg)
	if e.Err() != nil {
		return nil, fmt.Errorf("core: thread function name of %d bytes does not fit a create request", len(name))
	}
	return e.Out(), nil
}

func decodeCreate(req []byte) (name string, arg []byte, opts CreateOpts, err error) {
	d := wire.NewDec(req)
	opts.Detached = d.Bool()
	opts.Priority = int(d.I32())
	name, arg = d.Str16(), d.Rest()
	if d.Err() != nil {
		return "", nil, CreateOpts{}, fmt.Errorf("%w: create", errMalformed)
	}
	return name, arg, opts, nil
}

// Join-value wire format: one kind byte then the payload (raw bytes, raw
// string, or an i64).
const (
	jvNil byte = iota
	jvBytes
	jvString
	jvInt64
)

func encodeJoinValue(v any) []byte {
	e := wire.NewEnc(9)
	switch x := v.(type) {
	case nil:
		e.U8(jvNil)
	case []byte:
		e.U8(jvBytes)
		e.Raw(x)
	case int:
		e.U8(jvInt64)
		e.I64(int64(x))
	case int64:
		e.U8(jvInt64)
		e.I64(x)
	case string:
		e.U8(jvString)
		e.Raw([]byte(x))
	default:
		e.U8(jvString)
		e.Raw([]byte(fmt.Sprint(x)))
	}
	return e.Out()
}

func decodeJoinValue(b []byte) (any, error) {
	d := wire.NewDec(b)
	var v any
	switch kind := d.U8(); kind {
	case jvNil:
	case jvBytes:
		v = append([]byte{}, d.Rest()...)
	case jvString:
		v = string(d.Rest())
	case jvInt64:
		v = d.I64()
	default:
		return nil, fmt.Errorf("%w: join value kind %d", errMalformed, kind)
	}
	if d.End() != nil {
		return nil, fmt.Errorf("%w: join value of %d bytes", errMalformed, len(b))
	}
	return v, nil
}
