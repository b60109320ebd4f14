// Package escape seeds scheduler-context violations for the schedctx
// analyzer: restricted runtime calls made from raw goroutines and
// time.AfterFunc callbacks, next to compliant calls that must stay silent.
package escape

import (
	"time"

	"chant/internal/comm"
	"chant/internal/core"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/ult"
)

func rawGoroutines(s *ult.Sched, t *ult.TCB, host machine.Host) {
	go s.Yield() // want `Sched\.Yield .* outside the scheduler's context`
	go func() {
		s.Block()    // want `Sched\.Block .* must be called from the scheduler's context`
		s.Unblock(t) // want `Sched\.Unblock .* must be called from the scheduler's context`
	}()
	go func() {
		host.Idle()  // want `Host\.Idle .* must be called from the scheduler's context`
		host.Relax() // want `Host\.Relax .* must be called from the scheduler's context`
		func() {
			s.Spawn("nested", func() {}) // want `Sched\.Spawn .* must be called from the scheduler's context`
		}()
	}()
	go func() {
		host.Interrupt() // ok: Interrupt is the sanctioned cross-context entry point
	}()
}

func afterFunc(th *core.Thread, m *ult.Mutex) {
	time.AfterFunc(time.Second, func() {
		th.Yield() // want `Thread\.Yield .* time\.AfterFunc callback`
		m.Lock()   // want `Mutex\.Lock .* time\.AfterFunc callback`
		m.Unlock() // want `Mutex\.Unlock .* time\.AfterFunc callback`
	})
	// Direct calls in the same function are fine: context is the caller's.
	th.Yield()
	m.Lock()
	m.Unlock()
}

func commEscape(ep *comm.Endpoint, p *sim.Proc, k *sim.Kernel) {
	go func() {
		ep.Send(comm.Addr{}, 0, 1, 0, nil) // want `Endpoint\.Send .* must be called from the scheduler's context`
		var buf []byte
		ep.Recv(comm.MatchSpec{}, buf) // want `Endpoint\.Recv .* must be called from the scheduler's context`
		p.Advance(10)                  // want `Proc\.Advance .* must be called from the scheduler's context`
		k.At(0, func() {})             // want `Kernel\.At .* must be called from the scheduler's context`
		p.Signal()                     // ok: Signal is the sim-side interrupt entry point
	}()
}

func threadBody(t *core.Thread) {
	// Restricted calls on the calling thread's own context are the normal
	// case and must not be reported.
	t.Send(core.GlobalID{}, 1, nil)
	t.Recv(core.GlobalID{}, 1, nil)
	t.Process().CreateLocal("child", func(c *core.Thread) { c.Yield() }, nil)
}
