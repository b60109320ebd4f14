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
// covers each process is a runtime coroutine (iter.Pull), switched into by
// whichever goroutine gave up the processor to it — Run's or another
// process's: exactly one of them runs at a time, in deterministic order.
type Proc struct {
	k     *Kernel
	name  string
	state procState
	sig   bool // coalesced wakeup hint delivered while not parked
	fn    func(*Proc)

	// resuming is set while p waits inside resume for the process it
	// switched into: p is then one of the running process's resumers, and
	// the way back to p is up, through out.
	resuming bool

	// in switches into the coroutine, out from the coroutine back to the
	// goroutine that called in. Both are nil until the process is first
	// resumed. A coroutine parks whichever goroutine calls out, not the one
	// it was created on: that goroutine is the one in resumes. A ult thread
	// under SimHost relies on this, advancing the process's clock from its
	// own nested coroutine.
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

// resume switches into p and returns when p switches back out, to hand the
// processor on or because it finished, leaving the next process to run in
// k.pending.
func (p *Proc) resume() {
	if check.Enabled {
		p.k.handoffs += 2 // in, and back out
	}
	if p.in == nil {
		p.in, _ = iter.Pull(func(out func(struct{}) bool) {
			p.out = out
			p.run()
		})
	}
	p.in()
}

// run is the coroutine body: p's function, then the event loop, whose
// choice the goroutine that resumed p picks up from k.pending. A panic
// escaping the function is kept for Run to re-raise, like a callback's.
func (p *Proc) run() {
	k := p.k
	defer func() {
		if r := recover(); r != nil {
			k.pan, k.pending = r, nil
		}
	}()
	p.state = procRunning
	p.fn(p)
	p.state = procDone
	k.pending = k.loop(event{})
}

// Advance moves this process's clock forward by d, yielding to the kernel so
// other processes with earlier virtual times run first. Advancing by a
// non-positive duration is a no-op: the process keeps running without
// yielding. The resumption is queued and the earliest event taken in one
// heap pass; when that is the resumption itself, the process just goes on.
func (p *Proc) Advance(d Duration) {
	if check.Enabled && p.state != procRunning {
		check.Failf("sim: Advance on proc %q in state %s: only the currently running process may advance its clock", p.name, p.state)
	}
	if d <= 0 {
		return
	}
	k := p.k
	k.seq++
	p.state = procReady
	k.transfer(p, k.loop(k.heap.pushPop(event{at: k.now.Add(d), seq: k.seq, proc: p})))
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
	p.k.transfer(p, p.k.loop(event{}))
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
