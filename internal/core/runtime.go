package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"

	"chant/internal/comm/memnet"
	"chant/internal/comm/simnet"
)

// Topology describes the machine: PEs processing elements with ProcsPerPE
// processes each (the paper's experiments use 2 PEs with one process each).
type Topology struct {
	PEs        int
	ProcsPerPE int
}

// Addrs enumerates every process address in the topology, in (pe, proc)
// order.
func (t Topology) Addrs() []comm.Addr {
	out := make([]comm.Addr, 0, t.PEs*t.ProcsPerPE)
	for pe := 0; pe < t.PEs; pe++ {
		for pr := 0; pr < t.ProcsPerPE; pr++ {
			out = append(out, comm.Addr{PE: int32(pe), Proc: int32(pr)})
		}
	}
	return out
}

// MainFunc is a process main body.
type MainFunc func(t *Thread)

// Result reports what a finished run observed.
type Result struct {
	// VirtualEnd is the final simulation clock (zero in real mode).
	VirtualEnd sim.Time
	// PerProc holds each process's counter snapshot at the end of the run.
	PerProc map[comm.Addr]trace.Snapshot
	// Total sums the per-process snapshots.
	Total trace.Snapshot
}

// Runtime builds and runs one Chant machine. Create it with NewSimRuntime
// (deterministic virtual time over the simulated interconnect) or
// NewRealRuntime (wall-clock over the in-memory transport), Register any
// thread functions remote creates will name, then call Run.
type Runtime struct {
	topo  Topology
	cfg   Config
	model *machine.Model
	real  bool

	funcs    map[string]ThreadFunc
	handlers map[int32]Handler

	// restartMains holds per-address mains for restored processes
	// (OnRestart); willRecover marks addresses whose scheduled crash has a
	// recovery, so their kill is not reported as a run error. Both are fixed
	// before Run.
	restartMains map[comm.Addr]MainFunc
	willRecover  map[comm.Addr]bool

	mu    sync.Mutex
	procs map[comm.Addr]*Process
	// epochs is the high-water incarnation number issued per address
	// (see nextEpoch).
	epochs map[comm.Addr]uint32
}

// NewSimRuntime creates a runtime whose processes execute in virtual time
// on a simulated multicomputer with the given cost model.
func NewSimRuntime(topo Topology, cfg Config, model *machine.Model) *Runtime {
	return newRuntime(topo, cfg, model, false)
}

// NewRealRuntime creates a runtime whose processes execute on goroutines
// against the wall clock, joined by the in-memory transport.
func NewRealRuntime(topo Topology, cfg Config, model *machine.Model) *Runtime {
	return newRuntime(topo, cfg, model, true)
}

// NewDistRuntime creates a runtime for one process of a machine whose
// other processes live in other OS processes (connected by a transport
// such as tcpnet). Register thread functions as usual — every process of
// the machine must register the same names — then call RunOne with this
// process's endpoint.
func NewDistRuntime(topo Topology, cfg Config, model *machine.Model) *Runtime {
	return NewRealRuntime(topo, cfg, model)
}

// RunOne runs the single local process of a distributed machine: addr is
// this process's identity, ep its transport attachment (its Host is used
// for execution). The runtime's termination handshake spans OS processes,
// so every process's server thread stays available until the coordinator
// (pe0.p0) has seen every main finish.
func (rt *Runtime) RunOne(addr comm.Addr, ep *comm.Endpoint, main MainFunc) (trace.Snapshot, error) {
	if !rt.validAddr(addr) {
		return trace.Snapshot{}, fmt.Errorf("%w: %v", ErrBadTarget, addr)
	}
	proc := newProcess(rt, addr, ep.Host(), ep.Counters(), ep, rt.cfg)
	rt.mu.Lock()
	rt.procs[addr] = proc
	rt.mu.Unlock()
	var err error
	machine.WithPprofLabels(int(addr.PE), rt.cfg.Policy.String(), "run", func() {
		err = proc.run(rt.wrapMain(addr, main))
	})
	return ep.Counters().Snap(ep.Host().Now()), err
}

func newRuntime(topo Topology, cfg Config, model *machine.Model, real bool) *Runtime {
	if topo.PEs <= 0 || topo.ProcsPerPE <= 0 {
		panic("core: topology must have at least one PE and one process")
	}
	return &Runtime{
		topo:         topo,
		cfg:          cfg.withDefaults(),
		model:        model,
		real:         real,
		funcs:        make(map[string]ThreadFunc),
		handlers:     make(map[int32]Handler),
		restartMains: make(map[comm.Addr]MainFunc),
		willRecover:  make(map[comm.Addr]bool),
		procs:        make(map[comm.Addr]*Process),
		epochs:       make(map[comm.Addr]uint32),
	}
}

// Register binds name to fn for Create calls. All registrations must
// precede Run (names must agree across all processes, as with any RPC
// registry).
func (rt *Runtime) Register(name string, fn ThreadFunc) {
	if _, dup := rt.funcs[name]; dup {
		panic(fmt.Sprintf("core: duplicate thread function %q", name))
	}
	rt.funcs[name] = fn
}

func (rt *Runtime) lookupFunc(name string) ThreadFunc { return rt.funcs[name] }

// RegisterHandler binds a user RSR handler id (>= 0) to fn on every process
// of the machine, before any main runs — so no Call can race a handler
// registration happening inside a remote main. All registrations must
// precede Run.
func (rt *Runtime) RegisterHandler(id int32, fn Handler) {
	if id < 0 {
		panic("core: user RSR handler ids must be >= 0")
	}
	if _, dup := rt.handlers[id]; dup {
		panic(fmt.Sprintf("core: duplicate RSR handler %d", id))
	}
	rt.handlers[id] = fn
}

// Topology reports the machine shape.
func (rt *Runtime) Topology() Topology { return rt.topo }

// Config reports the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Process reports the process running at addr (valid during and after Run).
func (rt *Runtime) Process(addr comm.Addr) *Process {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.procs[addr]
}

func (rt *Runtime) validAddr(a comm.Addr) bool {
	return a.PE >= 0 && int(a.PE) < rt.topo.PEs &&
		a.Proc >= 0 && int(a.Proc) < rt.topo.ProcsPerPE
}

// sortAddrs orders process addresses by (PE, Proc), the canonical
// enumeration order used everywhere map-keyed process sets are walked.
func sortAddrs(addrs []comm.Addr) {
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].PE != addrs[j].PE {
			return addrs[i].PE < addrs[j].PE
		}
		return addrs[i].Proc < addrs[j].Proc
	})
}

// coordinator is the process that collects done-notifications and releases
// the machine at shutdown.
func (rt *Runtime) coordinator() comm.Addr { return comm.Addr{PE: 0, Proc: 0} }

// Run executes the given mains (indexed by process address; processes
// without a main still serve requests until released) and returns the
// aggregated result. Run may be called once per Runtime.
func (rt *Runtime) Run(mains map[comm.Addr]MainFunc) (*Result, error) {
	// Validate in address order so the reported address is deterministic
	// when several mains are misaddressed (map order varies run to run).
	given := make([]comm.Addr, 0, len(mains))
	for a := range mains {
		given = append(given, a)
	}
	sortAddrs(given)
	for _, a := range given {
		if !rt.validAddr(a) {
			return nil, fmt.Errorf("%w: main for %v", ErrBadTarget, a)
		}
	}
	if rt.real {
		return rt.runReal(mains)
	}
	return rt.runSim(mains)
}

// wrapMain appends the termination handshake to a process main: every
// non-coordinator sends "done" to the coordinator's main thread after its
// own main returns and then blocks for "release"; the coordinator collects
// all dones and broadcasts releases. This keeps every process's server
// thread available until the whole machine has finished its work.
func (rt *Runtime) wrapMain(addr comm.Addr, userMain MainFunc) MainFunc {
	return func(t *Thread) {
		if userMain != nil {
			userMain(t)
		}
		n := rt.topo.PEs * rt.topo.ProcsPerPE
		if n == 1 {
			return
		}
		if rt.cfg.TermGrace > 0 {
			rt.gracefulHandshake(addr, t)
			return
		}
		p := t.proc
		coord := rt.coordinator()
		if addr == coord {
			var buf [1]byte
			for i := 0; i < n-1; i++ {
				p.recvInternal(t, AnyThread, tagDone, buf[:])
			}
			for _, a := range rt.topo.Addrs() {
				if a == coord {
					continue
				}
				if err := p.send(t.gid.Thread, GlobalID{PE: a.PE, Proc: a.Proc, Thread: 0}, tagRelease, nil); err != nil {
					panic("core: release send: " + err.Error())
				}
			}
			return
		}
		if err := p.send(t.gid.Thread, GlobalID{PE: coord.PE, Proc: coord.Proc, Thread: 0}, tagDone, nil); err != nil {
			panic("core: done send: " + err.Error())
		}
		var buf [1]byte
		p.recvInternal(t, GlobalID{PE: coord.PE, Proc: coord.Proc, Thread: 0}, tagRelease, buf[:])
	}
}

const (
	// termMaxAttempts bounds how many times a non-coordinator resends its
	// done-notification before giving up on an unreachable coordinator.
	termMaxAttempts = 8
	// termMaxIdleRounds is how many consecutive empty grace windows the
	// coordinator tolerates before excusing processes it has not heard from.
	termMaxIdleRounds = 4
)

// gracefulHandshake is the fault-tolerant termination handshake, enabled by
// Config.TermGrace: done and release messages are resent when a grace
// window passes without progress, and both sides excuse peers declared dead
// instead of blocking forever on a message that will never come.
func (rt *Runtime) gracefulHandshake(addr comm.Addr, t *Thread) {
	p := t.proc
	coord := rt.coordinator()
	grace := rt.cfg.TermGrace
	host := p.ep.Host()
	var buf [1]byte

	if addr != coord {
		coordID := GlobalID{PE: coord.PE, Proc: coord.Proc, Thread: 0}
		for attempt := 0; attempt < termMaxAttempts; attempt++ {
			// Post the release receive before (re)sending done, so the
			// release is never unexpected.
			spec, err := p.recvSpec(t.gid.Thread, coordID, tagRelease)
			if err != nil {
				panic("core: internal recv spec: " + err.Error())
			}
			h := p.ep.Irecv(spec, buf[:])
			if err := p.send(t.gid.Thread, coordID, tagDone, nil); err != nil {
				p.ep.CancelRecv(h)
				p.ep.ReleaseHandle(h)
				return
			}
			werr := p.waitDeadline(h, host.Now().Add(grace))
			// waitDeadline leaves the handle terminal on every path
			// (completed, or withdrawn by TimeoutRecv), and it never left
			// this function: recycle it.
			p.ep.ReleaseHandle(h)
			if werr == nil || errors.Is(werr, comm.ErrPeerDead) {
				return // released, or the coordinator died: shut down
			}
			// Grace window expired: the done or the release was lost; resend.
		}
		return // coordinator unreachable after all attempts; shut down anyway
	}

	// Coordinator: collect one done from every other process — deduplicating
	// resends, excusing the dead — then broadcast releases.
	others := make([]comm.Addr, 0, rt.topo.PEs*rt.topo.ProcsPerPE-1)
	for _, a := range rt.topo.Addrs() {
		if a != coord {
			others = append(others, a)
		}
	}
	seen := make(map[comm.Addr]bool, len(others))
	heard := 0
	idle := 0
	for heard < len(others) && idle < termMaxIdleRounds {
		spec, err := p.recvSpec(t.gid.Thread, AnyThread, tagDone)
		if err != nil {
			panic("core: internal recv spec: " + err.Error())
		}
		h := p.ep.Irecv(spec, buf[:])
		werr := p.waitDeadline(h, host.Now().Add(grace))
		if werr != nil {
			p.ep.ReleaseHandle(h)
			// Empty window: excuse peers meanwhile declared dead, count the
			// round toward giving up on silent survivors.
			for _, a := range others {
				if !seen[a] && p.ep.PeerDead(a) {
					seen[a] = true
					heard++
				}
			}
			idle++
			continue
		}
		idle = 0
		hdr := h.Header()
		p.ep.ReleaseHandle(h)
		from := comm.Addr{PE: hdr.SrcPE, Proc: hdr.SrcProc}
		if !seen[from] {
			seen[from] = true
			heard++
		}
	}
	for _, a := range others {
		_ = p.send(t.gid.Thread, GlobalID{PE: a.PE, Proc: a.Proc, Thread: 0}, tagRelease, nil)
	}
	// Linger briefly answering duplicate dones, so a process whose release
	// was dropped (and which therefore resent its done) is not stranded.
	for round := 0; round < 2; round++ {
		spec, err := p.recvSpec(t.gid.Thread, AnyThread, tagDone)
		if err != nil {
			return
		}
		h := p.ep.Irecv(spec, buf[:])
		if p.waitDeadline(h, host.Now().Add(grace)) != nil {
			p.ep.ReleaseHandle(h)
			return
		}
		hdr := h.Header()
		p.ep.ReleaseHandle(h)
		_ = p.send(t.gid.Thread, GlobalID{PE: hdr.SrcPE, Proc: hdr.SrcProc, Thread: 0}, tagRelease, nil)
	}
}

// runSim executes the machine on the discrete-event simulator. Processes
// first register their endpoints (so no send can target a missing
// endpoint), rendezvous at virtual time zero, then run their mains.
func (rt *Runtime) runSim(mains map[comm.Addr]MainFunc) (*Result, error) {
	kernel := sim.NewKernel()
	net := simnet.New(kernel, rt.model)
	net.MeshWidth = rt.cfg.MeshWidth
	addrs := rt.topo.Addrs()

	// One error slot per process, joined in address order after the run.
	perr := make([]error, len(addrs))
	var ready []*sim.Proc
	for i, addr := range addrs {
		i, addr := i, addr
		sp := kernel.Spawn(addr.String(), func(p *sim.Proc) {
			host := machine.NewSimHost(p, rt.model)
			ctrs := &trace.Counters{}
			ep := net.NewEndpoint(addr, host, ctrs)
			proc := newProcess(rt, addr, host, ctrs, ep, rt.cfg)
			rt.mu.Lock()
			rt.procs[addr] = proc
			rt.mu.Unlock()
			p.WaitSignal() // rendezvous: all endpoints registered
			if err := proc.run(rt.wrapMain(addr, mains[addr])); err != nil {
				rt.noteRunErr(perr, i, addr, err)
			}
		})
		ready = append(ready, sp)
	}
	kernel.At(0, func() {
		for _, sp := range ready {
			sp.Signal()
		}
	})
	net.Faults = rt.cfg.Faults
	if rt.cfg.Faults != nil {
		plan := rt.cfg.Faults
		for _, c := range plan.Crashes() {
			c := c
			kernel.At(c.At, func() {
				rt.crashPE(c.PE)
				plan.WitnessCrash(c.PE, c.At, c.RestartAfter)
			})
			if c.RestartAfter <= 0 {
				continue
			}
			for _, a := range addrs {
				if a.PE == c.PE {
					rt.willRecover[a] = true
				}
			}
			recoverAt := c.At.Add(c.RestartAfter)
			kernel.At(recoverAt, func() {
				plan.WitnessRecover(c.PE, recoverAt)
				rt.restartPE(kernel, net, c.PE, perr)
			})
		}
	}
	if err := kernel.Run(0); err != nil {
		return nil, err
	}
	return rt.collect(kernel.Now()), errors.Join(perr...)
}

// crashPE simulates the failure of a whole processing element at the
// scheduled instant: every scheduler on the PE is killed (its run returns
// ult.ErrKilled), and every surviving process is told the dead addresses so
// receives pinned to them fail over to comm.ErrPeerDead instead of hanging.
// It runs as a kernel callback, outside any process, walking the sorted
// address list for a deterministic kill and notification order. The kernel
// clock stands at the crash instant for the whole callback, so every failed
// receive is stamped with it (it feeds the waiting-thread integral).
func (rt *Runtime) crashPE(pe int32) {
	addrs := rt.topo.Addrs()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, a := range addrs {
		if a.PE != pe {
			continue
		}
		if p := rt.procs[a]; p != nil {
			p.sched.Kill()
		}
	}
	for _, a := range addrs {
		if a.PE == pe {
			continue
		}
		p := rt.procs[a]
		if p == nil {
			continue
		}
		for _, dead := range addrs {
			if dead.PE == pe {
				p.ep.MarkPeerDead(dead)
			}
		}
	}
}

// runReal executes the machine on goroutines over the in-memory transport.
func (rt *Runtime) runReal(mains map[comm.Addr]MainFunc) (*Result, error) {
	net := memnet.New()
	addrs := rt.topo.Addrs()
	// Construct every process before any goroutine starts, so endpoints
	// all exist before the first send.
	for _, addr := range addrs {
		host := machine.NewRealHost(rt.model)
		ctrs := &trace.Counters{}
		ep := net.NewEndpoint(addr, host, ctrs)
		rt.procs[addr] = newProcess(rt, addr, host, ctrs, ep, rt.cfg)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(addrs))
	for i, addr := range addrs {
		i, addr := i, addr
		wg.Add(1)
		// Real mode is preemptive by definition: one OS-scheduled
		// goroutine per process, like one kernel thread per PE.
		//chant:allow-nondet real-mode processes run preemptively
		go func() {
			defer wg.Done()
			proc := rt.procs[addr]
			machine.WithPprofLabels(int(addr.PE), rt.cfg.Policy.String(), "run", func() {
				if err := proc.run(rt.wrapMain(addr, mains[addr])); err != nil {
					errs[i] = fmt.Errorf("%v: %w", addr, err)
				}
			})
		}()
	}
	wg.Wait()
	res := rt.collect(0)
	return res, errors.Join(errs...)
}

// collect snapshots every process's counters.
func (rt *Runtime) collect(end sim.Time) *Result {
	res := &Result{
		VirtualEnd: end,
		PerProc:    make(map[comm.Addr]trace.Snapshot),
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	keys := make([]comm.Addr, 0, len(rt.procs))
	for a := range rt.procs {
		keys = append(keys, a)
	}
	sortAddrs(keys)
	for _, a := range keys {
		snap := rt.procs[a].Counters().Snap(end)
		res.PerProc[a] = snap
		res.Total.Add(snap)
	}
	return res
}
