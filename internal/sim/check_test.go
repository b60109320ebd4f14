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

// TestHandoffCountPinned pins the number of goroutine hand-offs, not just
// their cost: a switch between two processes is one (the yielding process
// resumes its successor directly; through a kernel goroutine it was two), and
// a process that finds itself next is none.
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
		// Run starts a; each of the 2n Advances hands to the other process;
		// a's exit hands to b; b's exit wakes Run.
		if got, want := k.handoffs, uint64(2*n+3); got != want {
			t.Fatalf("%d hand-offs for %d alternating Advances, want %d", got, 2*n, want)
		}
	})

	t.Run("proc advancing alone", func(t *testing.T) {
		k := NewKernel()
		var during uint64
		k.Spawn("solo", func(p *Proc) {
			before := k.handoffs
			for i := 0; i < 100; i++ {
				p.Advance(1)
			}
			during = k.handoffs - before
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if during != 0 {
			t.Fatalf("%d hand-offs while a lone process advanced, want 0", during)
		}
		// Run starts it, its exit wakes Run.
		if got := k.handoffs; got != 2 {
			t.Fatalf("%d hand-offs in the whole run, want 2", got)
		}
	})

	t.Run("proc woken by a callback it dispatched", func(t *testing.T) {
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
		if during != 0 || k.Now() != 50 {
			t.Fatalf("%d hand-offs across 10 self-dispatched wakeups ending at %v, want 0 and 50", during, k.Now())
		}
	})
}
