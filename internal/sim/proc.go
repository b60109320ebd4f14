package sim

import (
	"iter"

	"chant/internal/check"
)

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
// covers each process is a runtime coroutine (iter.Pull) of Kernel.Run:
// exactly one of Run and the processes runs at a time, in deterministic
// order.
type Proc struct {
	k     *Kernel
	name  string
	state procState
	sig   bool // coalesced wakeup hint delivered while not parked
	fn    func(*Proc)

	// in switches from Run into the coroutine, out from the coroutine back
	// to Run. Both are nil until the process is first resumed. A coroutine
	// parks whichever goroutine calls out, not the one it was created on:
	// that goroutine is the one in resumes. A ult thread under SimHost relies
	// on this, advancing the process's clock from its own nested coroutine.
	in  func() (struct{}, bool)
	out func(struct{}) bool
}

// Spawn creates a process named name running fn, scheduled to start at the
// current virtual time (after already-queued events at that time).
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a process that starts at virtual time t.
func (k *Kernel) SpawnAt(t Time, name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn}
	k.procs = append(k.procs, p)
	k.scheduleProc(p, t)
	return p
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time: the kernel's clock, so it is valid
// from the running process and from event callbacks alike.
func (p *Proc) Now() Time { return p.k.now }

// resume hands the processor to p and returns when p next yields or
// finishes. Only Run calls it.
func (p *Proc) resume() {
	p.state = procRunning
	if check.Enabled {
		p.k.handoffs++
	}
	if p.in == nil {
		p.in, _ = iter.Pull(func(out func(struct{}) bool) {
			p.out = out
			p.fn(p)
			p.state = procDone
		})
	}
	p.in()
}

// yield gives the processor back to Run and returns once p has been resumed.
func (p *Proc) yield() { p.out(struct{}{}) }

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
