package sim

import "chant/internal/check"

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procReady   procState = iota // has a pending resume event
	procRunning                  // currently executing
	procParked                   // waiting for a Signal
	procDone                     // body function returned
)

func (s procState) String() string {
	switch s {
	case procReady:
		return "ready"
	case procRunning:
		return "running"
	case procParked:
		return "parked"
	case procDone:
		return "done"
	}
	return "invalid"
}

// Proc is a simulation process: a body function that runs in virtual time,
// interleaved with other processes by the kernel. A process advances the
// clock explicitly with Advance and can park awaiting a Signal. Under the
// covers each process is a goroutine, but strict handoff — a process that
// gives up the processor resumes its successor and then waits to be resumed
// itself — guarantees only one runs at a time, in deterministic order.
type Proc struct {
	k       *Kernel
	name    string
	state   procState
	started bool
	sig     bool // coalesced wakeup hint delivered while not parked
	resume  chan struct{}
	fn      func(*Proc)
}

// Spawn creates a process named name running fn, scheduled to start at the
// current virtual time (after already-queued events at that time).
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a process that starts at virtual time t.
func (k *Kernel) SpawnAt(t Time, name string, fn func(*Proc)) *Proc {
	p := &Proc{
		k:      k,
		name:   name,
		fn:     fn,
		resume: make(chan struct{}),
	}
	k.procs = append(k.procs, p)
	k.scheduleProc(p, t)
	return p
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time: the kernel's clock, so it is valid
// from the running process and from event callbacks alike.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.state == procDone }

// switchIn hands the processor to p: the one goroutine hand-off of a process
// switch. The caller must stop touching simulator state at once — wait to be
// resumed itself, or exit.
func (p *Proc) switchIn() {
	p.state = procRunning
	if check.Enabled {
		p.k.handoffs++
	}
	if !p.started {
		p.started = true
		// The goroutine is a coroutine: strict resume handoff between the
		// processes and Run means only one side ever runs at a time.
		//chant:allow-nondet strict coroutine handoff, no free interleaving
		go func() {
			p.fn(p)
			p.state = procDone
			p.dispatch()
		}()
		return
	}
	p.resume <- struct{}{}
}

// dispatch gives up the processor from p's context: p runs the kernel's
// event loop itself and hands over to whichever process is due next. It
// reports whether that process is p, in which case nothing was handed over
// and p simply keeps running. When the run is over, or the event loop
// panicked, it wakes Run's goroutine instead; a panic is carried there
// rather than raised here, where nothing could recover it.
func (p *Proc) dispatch() (self bool) {
	k := p.k
	switch q := k.nextCaught(); q {
	case p:
		p.state = procRunning
		return true
	case nil:
		if check.Enabled {
			k.handoffs++
		}
		k.over <- struct{}{}
	default:
		q.switchIn()
	}
	return false
}

// yield gives up the processor and returns once p has been resumed.
func (p *Proc) yield() {
	if !p.dispatch() {
		<-p.resume
	}
}

// Advance moves this process's clock forward by d, yielding to the kernel so
// other processes with earlier virtual times run first. Advancing by a
// non-positive duration is a no-op: the process keeps running without
// yielding.
func (p *Proc) Advance(d Duration) {
	if check.Enabled && p.state != procRunning {
		check.Failf("sim: Advance on proc %q in state %s: only the currently running process may advance its clock", p.name, p.state)
	}
	if d <= 0 {
		return
	}
	p.k.scheduleProc(p, p.k.now.Add(d))
	p.state = procReady
	p.yield()
}

// WaitSignal parks the process until another process or event callback calls
// Signal. Signals are coalesced: a Signal delivered while the process is
// runnable satisfies the next WaitSignal immediately. No virtual time passes
// while parked beyond what elapses before the Signal arrives.
func (p *Proc) WaitSignal() {
	if check.Enabled && p.state != procRunning {
		check.Failf("sim: WaitSignal on proc %q in state %s: only the currently running process may park itself", p.name, p.state)
	}
	if p.sig {
		p.sig = false
		return
	}
	p.state = procParked
	p.yield()
	p.sig = false
}

// Signal wakes the process if it is parked in WaitSignal, or records a
// coalesced hint satisfying its next WaitSignal otherwise. Signalling a
// finished process is a no-op. Signal must be called from simulation context
// (an event callback or another running process).
func (p *Proc) Signal() {
	switch p.state {
	case procParked:
		p.state = procReady
		p.k.scheduleProc(p, p.k.now)
	case procDone:
		// Nothing to wake.
	default:
		p.sig = true
	}
}
