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

// TestHandoffCountPinned pins the number of coroutine resumptions, not just
// their cost: Run is the only dispatcher, so every start and every return
// from a yield is exactly one resumption (two coroutine switches: out to Run,
// in to the process), a process that finishes just returns to Run, and the
// end of the run costs nothing — there is no Run goroutine to wake.
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
		// 2 starts + 2n returns from Advance; the two exits return to Run
		// without a resumption.
		if got, want := k.handoffs, uint64(2*n+2); got != want {
			t.Fatalf("%d resumptions for %d alternating Advances, want %d", got, 2*n, want)
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
		// A process that is itself next still goes through Run: n returns
		// from Advance, plus the start.
		if during != n || k.handoffs != n+1 {
			t.Fatalf("%d resumptions across %d lone Advances, %d in the whole run, want %d and %d", during, n, k.handoffs, n, n+1)
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
		// One resumption per wakeup; the 10 callbacks themselves run on
		// Run's goroutine and cost none.
		if during != 10 || k.Now() != 50 {
			t.Fatalf("%d resumptions across 10 wakeups ending at %v, want 10 and 50", during, k.Now())
		}
	})
}
