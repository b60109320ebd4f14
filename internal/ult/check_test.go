//go:build chantdebug

package ult

import (
	"fmt"
	"strings"
	"testing"

	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

// TestOwnerRejectsForeignGoroutine proves the chantdebug owner token: a raw
// goroutine calling into a running scheduler — the exact misuse the
// schedctx analyzer flags statically — panics at the call site instead of
// corrupting the ready queue.
func TestOwnerRejectsForeignGoroutine(t *testing.T) {
	s := newTestSched()
	got := make(chan any, 1)
	err := s.Run(func() {
		done := make(chan struct{})
		go func() {
			defer func() { got <- recover(); close(done) }()
			s.Spawn("intruder", func() {})
		}()
		<-done
	})
	if err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r == nil || !strings.Contains(fmt.Sprint(r), "outside the scheduling domain") {
		t.Fatalf("foreign Spawn did not trip the owner token; recovered %v", r)
	}
}

// TestOwnerRejectsForeignBlockingCall covers the blocking entry points,
// which go through mustCurrent's Assert.
func TestOwnerRejectsForeignBlockingCall(t *testing.T) {
	s := newTestSched()
	got := make(chan any, 1)
	err := s.Run(func() {
		done := make(chan struct{})
		go func() {
			defer func() { got <- recover(); close(done) }()
			s.Yield()
		}()
		<-done
	})
	if err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r == nil || !strings.Contains(fmt.Sprint(r), "outside the scheduling domain") {
		t.Fatalf("foreign Yield did not trip the owner token; recovered %v", r)
	}
}

// TestAuditCatchesCorruptAccounting corrupts the blocked count the way a
// bookkeeping bug would and proves the run-loop audit panics with a thread
// dump on the very next scheduling iteration.
func TestAuditCatchesCorruptAccounting(t *testing.T) {
	s := newTestSched()
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "blocked count") {
			t.Fatalf("corrupt accounting did not trip the audit; recovered %v", r)
		}
	}()
	s.Run(func() {
		s.Spawn("w", func() {})
		s.blocked++ // simulate a transition that skipped its bookkeeping
		s.Yield()   // forces a pass through dispatch's audit
	})
	t.Fatal("Run returned despite corrupt accounting")
}

// TestHandoffCountPinned pins the number of coroutine resumptions behind the
// scheduler's context switches: a full switch to another thread is exactly
// one (the parking or exiting thread dispatches, switches out to Run, and Run
// resumes the thread it chose: two coroutine switches), and the end of the
// run adds none — the last thread just returns into Run.
func TestHandoffCountPinned(t *testing.T) {
	const n = 100
	s := newTestSched()
	err := s.Run(func() {
		spin := func() {
			for i := 0; i < n; i++ {
				s.Yield()
			}
		}
		a, b := s.Spawn("a", spin), s.Spawn("b", spin)
		s.Join(a)
		s.Join(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	full := s.Counters().FullSwitches.Load()
	if full < 2*n {
		t.Fatalf("only %d full switches for %d alternating yields", full, 2*n)
	}
	// Every full switch in this run lands on a thread other than the one
	// dispatching — main's start, a's start, one per Yield (2n, the first of
	// which starts b) and main's two returns from Join: 2n+4, 204 at n = 100
	// — so each is one resumption and nothing else is.
	if got := s.handoffs; got != full {
		t.Fatalf("%d resumptions for %d full switches, want one each", got, full)
	}
}

// TestLoneBlockedThreadWakesWithoutHandoff: a thread that is alone on its
// scheduler and waits on a Scheduler-polls request runs the polling itself
// and, once the request completes, simply continues: no goroutine switch at
// all. The model's accounting must not notice — the partial and full
// switches, the idle passes and every charge are those of a scheduler that
// switched the thread out and back in.
func TestLoneBlockedThreadWakesWithoutHandoff(t *testing.T) {
	m := machine.Paragon1994()
	run := func(body func(s *Sched)) (handoffs uint64, d trace.Snapshot, elapsed sim.Duration) {
		k := sim.NewKernel()
		ctrs := &trace.Counters{}
		k.Spawn("pe", func(p *sim.Proc) {
			s := NewSched(machine.NewSimHost(p, m), ctrs, Options{Name: "lone"})
			if err := s.Run(func() {
				h0, c0, t0 := s.handoffs, ctrs.Snap(0), p.Now()
				body(s)
				handoffs, elapsed = s.handoffs-h0, p.Now().Sub(t0)
				d = ctrs.Snap(0)
				d.FullSwitches -= c0.FullSwitches
				d.PartialSwitches -= c0.PartialSwitches
				d.IdleEntries -= c0.IdleEntries
			}); err != nil {
				t.Error(err)
			}
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return
	}

	t.Run("PS pending check", func(t *testing.T) {
		// The check fails twice, then succeeds: three partial switches and
		// the full switch that restores the thread.
		handoffs, d, elapsed := run(func(s *Sched) {
			tests := 0
			s.Current().Pending = func() bool { tests++; return tests == 3 }
			s.Yield()
		})
		want := 3*m.PartialSwitch + m.FullSwitch
		if handoffs != 0 || d.PartialSwitches != 3 || d.FullSwitches != 1 || elapsed != want {
			t.Fatalf("hand-offs=%d partial=%d full=%d elapsed=%v, want 0, 3, 1, %v", handoffs, d.PartialSwitches, d.FullSwitches, elapsed, want)
		}
	})

	t.Run("WQ pre-schedule hook", func(t *testing.T) {
		// The hook completes the request on its third pass: two idle passes
		// (busy-poll, each charging the recheck gap), then the full switch.
		handoffs, d, elapsed := run(func(s *Sched) {
			self, passes, waiting := s.Current(), 0, true
			s.SetPreSchedule(func() {
				if passes++; passes == 3 {
					waiting = false
					s.Unblock(self)
				}
			})
			s.SetExternalWaiters(func() bool { return waiting })
			s.Block()
		})
		want := 2*m.IdleRecheckGap + m.FullSwitch
		if handoffs != 0 || d.IdleEntries != 2 || d.FullSwitches != 1 || elapsed != want {
			t.Fatalf("hand-offs=%d idle=%d full=%d elapsed=%v, want 0, 2, 1, %v", handoffs, d.IdleEntries, d.FullSwitches, elapsed, want)
		}
	})
}
