package core

import (
	"errors"
	"fmt"

	"chant/internal/comm"
	"chant/internal/ult"
	"chant/internal/wire"
)

// Shared data abstractions (paper Sections 1 and 3.2): the intro names
// "shared data abstractions" as a system Chant is to support, and Section
// 3.2 lists "processing system requests necessary to keep global state
// up-to-date (coherence management)" among the remote-service-request
// uses. SharedVar implements exactly that: an owner-based distributed
// variable with read caching and write invalidation, whose protocol
// messages are RSRs served by the server thread.
//
// Protocol: each variable has a home process holding the authoritative
// value and a directory of caching processes. A read misses its local
// cache at most once per invalidation: it fetches from home (registering
// in the directory) and caches. A write is sent to home, which serializes
// writers per variable, invalidates every cached copy (awaiting
// acknowledgements from each cacher's server thread), installs the new
// value, and only then acknowledges the writer — so after Write returns,
// no process can read the old value.

// Builtin handler ids for the coherence protocol.
const (
	hSharedFetch int32 = -6
	hSharedStore int32 = -7
	hSharedInval int32 = -8
)

// ErrNoShared reports access to a shared variable whose home has not
// created it.
var ErrNoShared = errors.New("core: no such shared variable at its home")

// sharedEntry is one process's state for one variable.
type sharedEntry struct {
	value   []byte
	version int64
	valid   bool // cache validity (true always at home)

	// Home-only state.
	home      bool
	directory map[comm.Addr]struct{}
	writeLock *ult.Mutex // serializes writers at home
}

// SharedVar is a handle to a distributed shared variable. Every process
// that uses the variable creates its own handle with NewShared; the home
// process must create it (installing the initial value) before any other
// process accesses it.
type SharedVar struct {
	p    *Process
	name string
	home comm.Addr
}

// NewShared creates this process's handle for the named variable homed at
// home. If this process is the home, init becomes the authoritative value.
func (p *Process) NewShared(name string, home comm.Addr, init []byte) (*SharedVar, error) {
	if !p.rt.validAddr(home) {
		return nil, fmt.Errorf("%w: shared home %v", ErrBadTarget, home)
	}
	if p.shared == nil {
		p.shared = make(map[string]*sharedEntry)
	}
	if _, dup := p.shared[name]; dup {
		return nil, fmt.Errorf("core: shared variable %q already created here", name)
	}
	e := &sharedEntry{}
	if home == p.addr {
		e.home = true
		e.valid = true
		e.value = append([]byte(nil), init...)
		e.version = 1
		e.directory = make(map[comm.Addr]struct{})
		e.writeLock = ult.NewMutex(p.sched)
	}
	p.shared[name] = e
	return &SharedVar{p: p, name: name, home: home}, nil
}

// Name reports the variable's global name.
func (v *SharedVar) Name() string { return v.name }

// Home reports the owning process.
func (v *SharedVar) Home() comm.Addr { return v.home }

// Version reports the locally known version (0 if never read).
func (v *SharedVar) Version() int64 { return v.p.shared[v.name].version }

// CachedLocally reports whether a read would be satisfied without
// communication.
func (v *SharedVar) CachedLocally() bool { return v.p.shared[v.name].valid }

// Read copies the variable's current value into buf, fetching (and
// caching) from home on a cold or invalidated cache. It returns the value
// length.
func (v *SharedVar) Read(t *Thread, buf []byte) (int, error) {
	t.mustCurrent("SharedVar.Read")
	e := v.p.shared[v.name]
	if !e.valid {
		// Miss: fetch from home via RSR (remote fetch, Section 3.2).
		reply := make([]byte, 8+len(buf))
		n, err := t.Call(v.home, hSharedFetch, []byte(v.name), reply)
		if err != nil {
			return 0, err
		}
		// The fetch reply is [version i64][value raw].
		d := wire.NewDec(reply[:n])
		version, value := d.I64(), d.Rest()
		if d.Err() != nil {
			return 0, fmt.Errorf("core: malformed shared fetch reply (%d bytes)", n)
		}
		e.version = version
		e.value = append(e.value[:0], value...)
		e.valid = true
	}
	n := copy(buf, e.value)
	if n < len(e.value) {
		return n, comm.ErrTruncated
	}
	return n, nil
}

// Write installs data as the variable's new value, invalidating every
// cached copy before returning.
func (v *SharedVar) Write(t *Thread, data []byte) error {
	t.mustCurrent("SharedVar.Write")
	if v.home == v.p.addr {
		return v.p.sharedStoreLocal(t, v.name, data, v.p.addr)
	}
	// The store request is [name str16][data raw].
	req := wire.NewEnc(2 + len(v.name) + len(data))
	req.Str16(v.name)
	req.Raw(data)
	if req.Err() != nil {
		return fmt.Errorf("core: shared variable name of %d bytes does not fit a store request", len(v.name))
	}
	if _, err := t.Call(v.home, hSharedStore, req.Out(), nil); err != nil {
		return err
	}
	// Our own copy is now stale unless the store handler refreshed us; be
	// conservative and drop it (the next read re-fetches).
	e := v.p.shared[v.name]
	e.valid = false
	return nil
}

// sharedStoreLocal performs the home side of a write on behalf of writer.
// It must run on a thread that may block (a home-process thread or a
// store-proxy thread), never on the server thread itself.
func (p *Process) sharedStoreLocal(t *Thread, name string, data []byte, writer comm.Addr) error {
	e := p.shared[name]
	if e == nil || !e.home {
		return fmt.Errorf("%w: %q", ErrNoShared, name)
	}
	e.writeLock.Lock()
	defer e.writeLock.Unlock()
	// Invalidate every cached copy, awaiting acknowledgement so that no
	// stale read survives this write's completion. The directory is walked
	// in address order: invalidation RSRs land in the event stream, and map
	// order would make simulated runs diverge (detlint flags the raw loop).
	cachers := make([]comm.Addr, 0, len(e.directory))
	for addr := range e.directory {
		cachers = append(cachers, addr)
	}
	sortAddrs(cachers)
	for _, addr := range cachers {
		if addr == writer {
			continue // the writer's copy is handled by the writer itself
		}
		if _, err := t.Call(addr, hSharedInval, []byte(name), nil); err != nil {
			return fmt.Errorf("core: invalidate %q at %v: %w", name, addr, err)
		}
	}
	e.directory = make(map[comm.Addr]struct{})
	e.value = append(e.value[:0], data...)
	e.version++
	return nil
}

// registerSharedHandlers installs the coherence protocol's RSR handlers.
func (p *Process) registerSharedHandlers() {
	p.handlers[hSharedFetch] = func(ctx *RSRContext) ([]byte, error) {
		name := string(ctx.Req)
		e := p.shared[name]
		if e == nil || !e.home {
			return nil, fmt.Errorf("%w: %q", ErrNoShared, name)
		}
		e.directory[ctx.Src.Addr()] = struct{}{}
		reply := wire.NewEnc(8 + len(e.value))
		reply.I64(e.version)
		reply.Raw(e.value)
		return reply.Out(), nil
	}

	p.handlers[hSharedStore] = func(ctx *RSRContext) ([]byte, error) {
		d := wire.NewDec(ctx.Req)
		name, data := d.Str16(), append([]byte(nil), d.Rest()...)
		if d.Err() != nil {
			return nil, fmt.Errorf("%w: shared store", errMalformed)
		}
		writer := ctx.Src.Addr()
		if e := p.shared[name]; e == nil || !e.home {
			return nil, fmt.Errorf("%w: %q", ErrNoShared, name)
		}
		// Invalidation blocks on remote acknowledgements, so hand the
		// store to a proxy thread and defer the reply (the same pattern
		// as remote join).
		ctx.DeferReply()
		proxy := p.CreateLocal("store-proxy", func(proxyT *Thread) {
			ctx.Reply(nil, p.sharedStoreLocal(proxyT, name, data, writer))
		}, ult.SpawnOpts{})
		proxy.Detach()
		return nil, nil
	}

	p.handlers[hSharedInval] = func(ctx *RSRContext) ([]byte, error) {
		if e := p.shared[string(ctx.Req)]; e != nil && !e.home {
			e.valid = false
		}
		return nil, nil
	}
}
