package core

import (
	"errors"
	"fmt"
	"sort"

	"chant/internal/comm"
	"chant/internal/faults"
	"chant/internal/machine"
	"chant/internal/recovery"
	"chant/internal/sim"
	"chant/internal/trace"
	"chant/internal/ult"
)

// Config selects how a Chant machine behaves.
type Config struct {
	// Policy is the message-polling scheduling algorithm (Section 4.2).
	Policy PolicyKind
	// Delivery is where destination thread names travel (Section 3.1).
	Delivery DeliveryMode
	// DisableServer omits the RSR server thread. The paper's point-to-point
	// experiments (Section 4) run on the bottom layer only, with no server
	// thread polling alongside the workload; the experiment harness sets
	// this to match.
	DisableServer bool
	// ServerPriority is the priority the server thread assumes when a
	// request arrives (default 5; computation threads run at 0). A
	// negative value disables the boost, leaving the server to compete
	// FIFO with computation threads — measurably worse request latency
	// (see the boost test), which is why the paper boosts.
	ServerPriority int
	// MaxRSR bounds the size of a remote service request message
	// (default 64 KiB).
	MaxRSR int
	// MeshWidth, when positive, arranges simulated PEs in a 2D mesh of
	// that width (the Paragon's topology): messages pay Model.NetPerHop
	// for each hop beyond the first. Zero models a flat network. Only the
	// simulated transport observes it.
	MeshWidth int
	// EventLogSize, when positive, attaches a trace.Log retaining that
	// many scheduler events to every process, retrievable afterwards via
	// Process.EventLog. The determinism self-test compares these streams
	// across runs; debugging sessions dump them.
	EventLogSize int

	// --- Robustness (fault tolerance) ---

	// RSRTimeout, when positive, bounds each attempt of a remote service
	// Call: a reply not arriving within the timeout triggers an idempotent
	// resend (up to RSRRetries), after which Call returns ErrRSRTimeout.
	// Zero keeps the paper's reliable-network behaviour: Call blocks until
	// the reply arrives.
	RSRTimeout sim.Duration
	// RSRRetries is how many resends follow a timed-out Call attempt.
	RSRRetries int
	// RSRBackoff, when positive, is the extra compute charged before each
	// resend, doubling per attempt (bounded exponential backoff).
	RSRBackoff sim.Duration
	// TermGrace, when positive, makes the distributed termination handshake
	// fault-tolerant: done/release messages are resent on timeout, and the
	// coordinator excuses processes declared dead rather than waiting for
	// them forever. Zero keeps the reliable handshake.
	TermGrace sim.Duration
	// MaxUnexpected, when positive, caps each endpoint's unexpected-message
	// queue; arrivals beyond the cap are dropped and counted
	// (trace.Counters.UnexpectedDropped). Zero leaves it unbounded.
	MaxUnexpected int
	// Faults, when non-nil, is the fault-injection plan the simulated
	// transport applies to every wire and the runtime consults for
	// scheduled PE crashes. Only simulated runtimes observe it.
	Faults *faults.Plan

	// --- Recovery (coordinated checkpoints and restart) ---

	// CheckpointStore, when non-nil, enables coordinated checkpointing: it
	// is where captured snapshots are archived and where a restarting
	// process reads its latest checkpoint from. Simulated topologies share
	// one recovery.NewMemStore() across all processes.
	CheckpointStore recovery.Store
	// --- Observability ---

	// Tracer, when non-nil, receives spans from every layer of each
	// process: scheduler occupancy and blocked intervals, endpoint sends
	// and drains, RSR calls and serves, recovery brackets. Simulated
	// runtimes should attach trace.NewTracer (the deterministic ordered
	// store); real-mode runtimes trace.NewFlightTracer (lock-free per-PE
	// rings). Nil — the default — disables span collection: every
	// instrumentation site reduces to one pointer compare.
	Tracer *trace.Tracer
	// Metrics, when non-nil, gets every process's live Counters registered
	// under its address label for /metrics scrapes. A restarted process
	// re-registers under the same label, replacing its previous life (the
	// restored counters already carry the pre-crash history via Preload).
	Metrics *trace.Registry

	// RejoinWait, when positive, makes a timed-out Call wait out a dead
	// peer for up to this long before surfacing comm.ErrPeerDead: each
	// round charges one RSRTimeout of compute and resends the request with
	// its original sequence, so a peer that crashes and rejoins within the
	// window still serves the call exactly once (its restored epoch-aware
	// dedup cache suppresses anything it already served). Zero fails Calls
	// to dead peers immediately. Only meaningful with RSRTimeout set.
	RejoinWait sim.Duration
}

func (c Config) withDefaults() Config {
	if c.ServerPriority == 0 {
		c.ServerPriority = 5
	}
	if c.MaxRSR == 0 {
		c.MaxRSR = 64 << 10
	}
	return c
}

// Process is one Chant process: a scheduler full of threads attached to a
// communication endpoint, able to talk to threads of any other process.
type Process struct {
	rt     *Runtime
	addr   comm.Addr
	sched  *ult.Sched
	ep     *comm.Endpoint
	cfg    Config
	policy policy

	threads map[int32]*Thread
	server  *Thread

	handlers map[int32]Handler
	nextReq  int32
	rsrSeen  map[GlobalID]*rsrDedup
	shared   map[string]*sharedEntry
	channels map[int32]*chanState
	nextChan int32

	// epoch is the process incarnation number carried in every RSR envelope:
	// 0 for a first run, bumped on every restart from a checkpoint. Peers use
	// it to order request streams across this process's restarts.
	epoch uint32
	// snap is the coordinated snapshot currently in progress, nil otherwise;
	// snapCount numbers the snapshots this process initiated.
	snap      *snapState
	snapCount uint32
	// rejoinedAt, on a restored process, is when the rejoin handshake
	// finished (for recovery-latency measurements).
	rejoinedAt sim.Time
}

// Thread is a chanter: a global thread handle combining the local TCB with
// its global name. Methods on Thread are the Chant interface for the
// calling thread.
type Thread struct {
	proc *Process
	tcb  *ult.TCB
	gid  GlobalID
}

// newProcess wires a process together. The runtime calls it once per
// (pe, proc) before running mains.
func newProcess(rt *Runtime, addr comm.Addr, host machine.Host, ctrs *trace.Counters, ep *comm.Endpoint, cfg Config) *Process {
	var evlog *trace.Log
	if cfg.EventLogSize > 0 {
		evlog = trace.NewLog(cfg.EventLogSize)
	}
	sched := ult.NewSched(host, ctrs, ult.Options{
		Name:     addr.String(),
		EventLog: evlog,
		// Real hosts park on interrupts; simulated ones busy-poll, the
		// paper's interrupt-free behaviour, so poll counts match.
		IdleBlock: !host.Deterministic(),
		Tracer:    cfg.Tracer,
		PE:        addr.PE,
	})
	p := &Process{
		rt:       rt,
		addr:     addr,
		sched:    sched,
		ep:       ep,
		cfg:      cfg,
		threads:  make(map[int32]*Thread),
		handlers: make(map[int32]Handler),
		rsrSeen:  make(map[GlobalID]*rsrDedup),
	}
	if cfg.MaxUnexpected > 0 {
		ep.SetUnexpectedCap(cfg.MaxUnexpected)
	}
	if cfg.Tracer != nil {
		ep.SetTracer(cfg.Tracer)
	}
	// Register (or, after a restart, re-register) the live counters for
	// metrics scrapes. Registry.Register is nil-receiver safe.
	cfg.Metrics.Register(addr.String(), ctrs)
	p.policy = newPolicy(cfg.Policy, sched, ep)
	p.registerBuiltinHandlers()
	p.registerSharedHandlers()
	p.registerChannelHandlers()
	p.registerRecoveryHandlers()
	// Runtime-level handlers are installed before any main runs, so no Call
	// can race a handler registration happening inside a remote main.
	ids := make([]int32, 0, len(rt.handlers))
	for id := range rt.handlers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p.RegisterHandler(id, rt.handlers[id])
	}
	return p
}

// Addr reports the process address.
func (p *Process) Addr() comm.Addr { return p.addr }

// Sched exposes the process scheduler (for tests and the public API).
func (p *Process) Sched() *ult.Sched { return p.sched }

// Endpoint exposes the process communication endpoint.
func (p *Process) Endpoint() *comm.Endpoint { return p.ep }

// Counters reports the process's event counters.
func (p *Process) Counters() *trace.Counters { return p.sched.Counters() }

// EventLog reports the process's scheduler event log (nil unless
// Config.EventLogSize was positive).
func (p *Process) EventLog() *trace.Log { return p.sched.EventLog() }

// run executes main as thread 0, with the server thread (unless disabled)
// and, in body-delivery mode, the dispatcher thread created first.
func (p *Process) run(main func(t *Thread)) error {
	return p.sched.Run(func() {
		t := p.adopt(p.sched.Current())
		if !p.cfg.DisableServer {
			p.startServer()
		}
		if p.cfg.Delivery == DeliverBody {
			p.startDispatcher()
		}
		main(t)
	})
}

// adopt wraps a TCB as a global thread and registers it.
func (p *Process) adopt(tcb *ult.TCB) *Thread {
	t := &Thread{
		proc: p,
		tcb:  tcb,
		gid:  GlobalID{PE: p.addr.PE, Proc: p.addr.Proc, Thread: tcb.ID()},
	}
	p.threads[tcb.ID()] = t
	return t
}

// CreateLocal creates a thread in this process running fn and returns its
// handle. The new thread is registered under its global name. Following
// pthread semantics, the registry entry persists after exit until the
// thread is joined, so joins (including remote joins) never race with
// completion; detached threads are unregistered as soon as they finish.
func (p *Process) CreateLocal(name string, fn func(t *Thread), opts ult.SpawnOpts) *Thread {
	var t *Thread
	tcb := p.sched.SpawnWith(name, func() {
		defer func() {
			if t.tcb.Detached() {
				delete(p.threads, t.gid.Thread)
			}
		}()
		fn(t)
	}, opts)
	t = p.adopt(tcb)
	return t
}

// unregister removes a finished thread from the registry (after a
// successful join, or a detach of an already-finished thread).
func (p *Process) unregister(t *Thread) { delete(p.threads, t.gid.Thread) }

// Lookup finds a live local thread by local id.
func (p *Process) Lookup(local int32) (*Thread, bool) {
	t, ok := p.threads[local]
	return t, ok
}

// --- Thread identity operations (Appendix A) ---

// ID reports the thread's global identifier (pthread_chanter_self).
func (t *Thread) ID() GlobalID { return t.gid }

// PE reports the processing element (pthread_chanter_pe).
func (t *Thread) PE() int32 { return t.gid.PE }

// Proc reports the process id (pthread_chanter_process).
func (t *Thread) Proc() int32 { return t.gid.Proc }

// TCB reports the local thread underneath the global name
// (pthread_chanter_pthread): all purely-local operations — thread-local
// data, priorities, synchronization — are performed on it.
func (t *Thread) TCB() *ult.TCB { return t.tcb }

// Process reports the owning Chant process.
func (t *Thread) Process() *Process { return t.proc }

// Yield gives up the processor (pthread_chanter_yield).
func (t *Thread) Yield() { t.proc.sched.Yield() }

// Exit terminates the calling thread with value (pthread_chanter_exit).
func (t *Thread) Exit(value any) { t.proc.sched.Exit(value) }

// Detach marks the thread so its storage is reclaimed on exit
// (pthread_chanter_detach).
func (t *Thread) Detach() { t.tcb.Detach() }

// JoinLocal joins a thread in the same process (the local fast path of
// pthread_chanter_join). A completed join reclaims the target's registry
// entry.
func (t *Thread) JoinLocal(target *Thread) (any, error) {
	v, err := t.proc.sched.Join(target.tcb)
	if err == nil || errors.Is(err, ult.ErrCanceled) {
		t.proc.unregister(target)
	}
	return v, err
}

// CancelLocal cancels a thread in the same process (the local fast path of
// pthread_chanter_cancel).
func (t *Thread) CancelLocal(target *Thread) { t.proc.sched.Cancel(target.tcb) }

// mustCurrent asserts that t is the thread running on its scheduler; all
// communication calls are made by the calling thread itself.
func (t *Thread) mustCurrent(op string) {
	if t.proc.sched.Current() != t.tcb {
		panic(fmt.Sprintf("core: %s called on thread %v from a different thread", op, t.gid))
	}
}
