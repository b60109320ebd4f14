//go:build chantdebug

package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestAdvanceOutsideRunningProcPanics proves the chantdebug context assert:
// advancing another process's clock (only the running process may advance)
// panics instead of corrupting the event order.
func TestAdvanceOutsideRunningProcPanics(t *testing.T) {
	k := NewKernel()
	caught := make(chan any, 1)
	victim := k.Spawn("victim", func(p *Proc) { p.WaitSignal() })
	k.Spawn("attacker", func(p *Proc) {
		defer func() { caught <- recover() }()
		victim.Advance(5)
	})
	k.At(1, func() { victim.Signal() }) // let the victim finish cleanly
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	r := <-caught
	if r == nil || !strings.Contains(fmt.Sprint(r), "only the currently running process") {
		t.Fatalf("cross-proc Advance did not trip the check; recovered %v", r)
	}
}

// TestHeapMonotonicAuditCatchesPastEvent plants a corrupt heap entry behind
// At's guard and proves the kernel's monotonic-time audit refuses to run
// time backwards.
func TestHeapMonotonicAuditCatchesPastEvent(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		// Bypass At's past-event guard, simulating a corrupted heap.
		k.seq++
		k.heap.push(event{at: 5, seq: k.seq, fn: func() {}})
	})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "went backwards") {
			t.Fatalf("backwards event did not trip the audit; recovered %v", r)
		}
	}()
	k.Run(0)
	t.Fatal("Run returned despite a backwards event")
}

// TestHandoffCountPinned pins the number of coroutine switches, not just
// their cost. Whoever gives up the processor runs the event loop: a process
// that is itself next goes on with no switch, another process is switched
// into directly, or back up to if it is one of the running process's
// resumers, and a process that finishes switches back up to its resumer.
// Every switch into a process is matched by one switch back out of it, so
// the count goes up by two per resumption.
func TestHandoffCountPinned(t *testing.T) {
	t.Run("two procs alternating", func(t *testing.T) {
		const n = 100 // Advance calls per process
		k := NewKernel()
		step := func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Advance(1)
			}
		}
		k.Spawn("a", step)
		k.Spawn("b", step)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		// Run switches into a, and each of the 2n Advances is one switch:
		// into b from a, back up to a from b. Then a finishes back up to
		// Run, Run switches into b for its last return, and b finishes back
		// up to Run: 2n+4, one switch per hand-off.
		if got, want := k.handoffs, uint64(2*n+4); got != want {
			t.Fatalf("%d coroutine switches for %d alternating Advances, want %d", got, 2*n, want)
		}
	})

	t.Run("proc advancing alone", func(t *testing.T) {
		const n = 100
		k := NewKernel()
		var during uint64
		k.Spawn("solo", func(p *Proc) {
			before := k.handoffs
			for i := 0; i < n; i++ {
				p.Advance(1)
			}
			during = k.handoffs - before
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		// A process that is itself next keeps running: no switch at all,
		// only the start and the finish.
		if during != 0 || k.handoffs != 2 {
			t.Fatalf("%d coroutine switches across %d lone Advances, %d in the whole run, want 0 and 2", during, n, k.handoffs)
		}
	})

	t.Run("proc woken by callbacks", func(t *testing.T) {
		k := NewKernel()
		var during uint64
		var tick func()
		ticks := 0
		p := k.Spawn("sleeper", func(p *Proc) {
			before := k.handoffs
			for i := 0; i < 10; i++ {
				p.WaitSignal()
			}
			during = k.handoffs - before
		})
		tick = func() {
			p.Signal()
			if ticks++; ticks < 10 {
				k.After(5, tick)
			}
		}
		k.At(5, tick)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		// The parked process runs the loop itself: the callback that
		// signals it runs on its goroutine and the process then due is
		// itself, so a wakeup costs no switch.
		if during != 0 || k.Now() != 50 {
			t.Fatalf("%d coroutine switches across 10 wakeups ending at %v, want 0 and 50", during, k.Now())
		}
	})
}
