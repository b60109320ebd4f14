package ult

import (
	"errors"
	"testing"

	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

// newTestSched returns a real-clock scheduler suitable for behavioural
// tests (cost charges are no-ops against a RealHost).
func newTestSched() *Sched {
	return NewSched(machine.NewRealHost(machine.Modern()), &trace.Counters{}, Options{Name: "test"})
}

func TestRunMainOnly(t *testing.T) {
	s := newTestSched()
	ran := false
	if err := s.Run(func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("main did not run")
	}
}

func TestSpawnedThreadsComplete(t *testing.T) {
	s := newTestSched()
	var order []int
	err := s.Run(func() {
		for i := 0; i < 5; i++ {
			i := i
			s.Spawn("w", func() { order = append(order, i) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("ran %d of 5 threads", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("spawn order not FIFO: %v", order)
		}
	}
}

func TestYieldRoundRobin(t *testing.T) {
	s := newTestSched()
	var log []string
	err := s.Run(func() {
		for _, name := range []string{"a", "b"} {
			name := name
			s.Spawn(name, func() {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					s.Yield()
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestYieldFastPathNoSwitch(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		before := s.Counters().FullSwitches.Load()
		for i := 0; i < 10; i++ {
			s.Yield()
		}
		if got := s.Counters().FullSwitches.Load(); got != before {
			t.Errorf("lone-thread yields performed %d context switches", got-before)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Counters().YieldsNoSwitch.Load(); got != 10 {
		t.Fatalf("YieldsNoSwitch = %d, want 10", got)
	}
}

func TestJoinExitValue(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		w := s.Spawn("worker", func() { s.Exit(42) })
		v, err := s.Join(w)
		if err != nil || v != 42 {
			t.Errorf("Join = (%v, %v), want (42, nil)", v, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinNormalReturnIsNil(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		w := s.Spawn("worker", func() {})
		v, err := s.Join(w)
		if err != nil || v != nil {
			t.Errorf("Join = (%v, %v), want (nil, nil)", v, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinAlreadyDone(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		w := s.Spawn("worker", func() { s.Exit("done") })
		s.Yield() // let worker finish first
		if w.State() != Done {
			t.Error("worker should be done after yield")
		}
		v, err := s.Join(w)
		if err != nil || v != "done" {
			t.Errorf("Join = (%v, %v)", v, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinErrors(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		cur := s.Current()
		if _, err := s.Join(cur); !errors.Is(err, ErrSelfJoin) {
			t.Errorf("self join err = %v", err)
		}
		w := s.Spawn("detached", func() {})
		w.Detach()
		if _, err := s.Join(w); !errors.Is(err, ErrDetached) {
			t.Errorf("detached join err = %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultipleJoiners(t *testing.T) {
	s := newTestSched()
	got := 0
	err := s.Run(func() {
		target := s.Spawn("target", func() {
			s.Yield()
			s.Exit(7)
		})
		j1 := s.Spawn("j1", func() {
			if v, err := s.Join(target); err == nil {
				got += v.(int)
			}
		})
		j2 := s.Spawn("j2", func() {
			if v, err := s.Join(target); err == nil {
				got += v.(int)
			}
		})
		s.Join(j1)
		s.Join(j2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 14 {
		t.Fatalf("joiners collected %d, want 14", got)
	}
}

func TestCancelReadyThread(t *testing.T) {
	s := newTestSched()
	ran := false
	err := s.Run(func() {
		w := s.Spawn("victim", func() {
			s.Yield()
			ran = true // must never execute past the first scheduling point
		})
		s.Yield() // victim runs up to its first Yield
		s.Cancel(w)
		if _, err := s.Join(w); !errors.Is(err, ErrCanceled) {
			t.Errorf("join of canceled thread: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("canceled thread kept running")
	}
}

func TestCancelBeforeFirstRun(t *testing.T) {
	s := newTestSched()
	ran := false
	err := s.Run(func() {
		w := s.Spawn("victim", func() { ran = true })
		s.Cancel(w)
		if _, err := s.Join(w); !errors.Is(err, ErrCanceled) {
			t.Errorf("join: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("thread ran despite being canceled before its first switch-in")
	}
}

func TestCancelSelfExitsImmediately(t *testing.T) {
	s := newTestSched()
	after := false
	err := s.Run(func() {
		w := s.Spawn("self-cancel", func() {
			s.Cancel(s.Current())
			after = true
		})
		if _, err := s.Join(w); !errors.Is(err, ErrCanceled) {
			t.Errorf("join: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if after {
		t.Fatal("self-cancel did not exit immediately")
	}
}

func TestCancelFinishedIsNoop(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		w := s.Spawn("w", func() { s.Exit(1) })
		s.Yield()
		s.Cancel(w) // already done
		if v, err := s.Join(w); err != nil || v != 1 {
			t.Errorf("join after no-op cancel: (%v, %v)", v, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDaemonReapedAtShutdown(t *testing.T) {
	s := newTestSched()
	var daemon *TCB
	iterations := 0
	err := s.Run(func() {
		daemon = s.SpawnWith("server", func() {
			for {
				iterations++
				s.Yield()
			}
		}, SpawnOpts{Daemon: true})
		s.Yield()
		s.Yield()
	})
	if err != nil {
		t.Fatal(err)
	}
	if daemon.State() != Done {
		t.Fatalf("daemon state = %v after Run, want done", daemon.State())
	}
	if iterations == 0 {
		t.Fatal("daemon never ran")
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		var a, b *TCB
		a = s.Spawn("a", func() { s.Yield(); s.Join(b) })
		b = s.Spawn("b", func() { s.Join(a) })
		s.Join(a)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestThreadPanicPropagates(t *testing.T) {
	s := newTestSched()
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %v, want *PanicError", r)
		}
		if pe.Thread != "bad" || pe.Value != "boom" {
			t.Fatalf("PanicError = %+v", pe)
		}
	}()
	s.Run(func() {
		s.Spawn("bad", func() { panic("boom") })
	})
	t.Fatal("Run returned instead of propagating the panic")
}

func TestPriorityOrdering(t *testing.T) {
	s := newTestSched()
	var order []string
	err := s.Run(func() {
		s.SpawnWith("low", func() { order = append(order, "low") }, SpawnOpts{Priority: 0})
		s.SpawnWith("high", func() { order = append(order, "high") }, SpawnOpts{Priority: 5})
		s.SpawnWith("mid", func() { order = append(order, "mid") }, SpawnOpts{Priority: 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"high", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityBoostWhileQueued(t *testing.T) {
	s := newTestSched()
	var order []string
	err := s.Run(func() {
		a := s.Spawn("a", func() { order = append(order, "a") })
		s.Spawn("b", func() { order = append(order, "b") })
		a.SetPriority(10) // boost a while it waits in the ready queue
		s.Yield()
	})
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "a" {
		t.Fatalf("boosted thread did not run first: %v", order)
	}
}

func TestPendingPartialSwitch(t *testing.T) {
	s := newTestSched()
	tries := 0
	resumed := false
	err := s.Run(func() {
		w := s.Spawn("waiter", func() {
			me := s.Current()
			me.Pending = func() bool {
				tries++
				return tries >= 3
			}
			s.Yield()
			resumed = true
		})
		// Keep the scheduler busy so the waiter's TCB is inspected.
		for i := 0; i < 10 && !resumed; i++ {
			s.Yield()
		}
		s.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tries != 3 {
		t.Fatalf("pending checked %d times, want 3", tries)
	}
	if !resumed {
		t.Fatal("waiter never resumed after pending satisfied")
	}
	if got := s.Counters().PartialSwitches.Load(); got != 3 {
		t.Fatalf("PartialSwitches = %d, want 3", got)
	}
}

func TestPreScheduleHookRuns(t *testing.T) {
	s := newTestSched()
	calls := 0
	s.SetPreSchedule(func() { calls++ })
	err := s.Run(func() {
		s.Yield()
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("pre-schedule hook never ran")
	}
}

func TestBlockUnblock(t *testing.T) {
	s := newTestSched()
	var w *TCB
	stage := 0
	err := s.Run(func() {
		w = s.Spawn("sleeper", func() {
			stage = 1
			s.Block()
			stage = 2
		})
		s.Yield() // sleeper runs and blocks
		if stage != 1 || w.State() != Blocked {
			t.Errorf("stage=%d state=%v", stage, w.State())
		}
		s.Unblock(w)
		s.Join(w)
		if stage != 2 {
			t.Errorf("sleeper did not resume: stage=%d", stage)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnblockNonBlockedPanics(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		w := s.Spawn("w", func() {})
		defer func() {
			if recover() == nil {
				t.Error("Unblock of ready thread did not panic")
			}
		}()
		s.Unblock(w)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestThreadOutsideContextPanics(t *testing.T) {
	s := newTestSched()
	defer func() {
		if recover() == nil {
			t.Error("Yield outside thread context did not panic")
		}
	}()
	s.Yield()
}

func TestExitValueSkipsRestOfBody(t *testing.T) {
	s := newTestSched()
	after := false
	err := s.Run(func() {
		w := s.Spawn("w", func() {
			s.Exit("early")
			after = true
		})
		v, err := s.Join(w)
		if err != nil || v != "early" {
			t.Errorf("Join = (%v, %v)", v, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if after {
		t.Fatal("code after Exit ran")
	}
}

func TestManyShortThreadsPrune(t *testing.T) {
	s := newTestSched()
	const n = 1000
	ran := 0
	err := s.Run(func() {
		for i := 0; i < n; i++ {
			w := s.Spawn("w", func() { ran++ })
			s.Join(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != n {
		t.Fatalf("ran %d of %d", ran, n)
	}
	if len(s.threads) > 300 {
		t.Fatalf("thread bookkeeping not pruned: %d entries", len(s.threads))
	}
}

// Scheduler behaviour must be deterministic under the simulation kernel:
// identical runs produce identical counter values and final clocks.
func TestSchedulerDeterministicUnderSim(t *testing.T) {
	runOnce := func() (trace.Snapshot, sim.Time) {
		k := sim.NewKernel()
		ctrs := &trace.Counters{}
		var end sim.Time
		k.Spawn("pe", func(p *sim.Proc) {
			host := machine.NewSimHost(p, machine.Paragon1994())
			s := NewSched(host, ctrs, Options{Name: "pe0"})
			err := s.Run(func() {
				for i := 0; i < 4; i++ {
					s.Spawn("w", func() {
						for j := 0; j < 10; j++ {
							host.Compute(100)
							s.Yield()
						}
					})
				}
			})
			if err != nil {
				t.Error(err)
			}
			end = host.Now()
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return ctrs.Snap(end), end
	}
	s1, e1 := runOnce()
	s2, e2 := runOnce()
	if s1 != s2 || e1 != e2 {
		t.Fatalf("nondeterministic: %+v@%v vs %+v@%v", s1, e1, s2, e2)
	}
	if s1.FullSwitches == 0 {
		t.Fatal("no context switches counted")
	}
}

// Context-switch cost must appear in virtual time: more switches, more time.
func TestSwitchCostCharged(t *testing.T) {
	elapse := func(yields int) sim.Time {
		k := sim.NewKernel()
		var end sim.Time
		k.Spawn("pe", func(p *sim.Proc) {
			host := machine.NewSimHost(p, machine.Paragon1994())
			s := NewSched(host, &trace.Counters{}, Options{})
			s.Run(func() {
				s.Spawn("a", func() {
					for i := 0; i < yields; i++ {
						s.Yield()
					}
				})
				s.Spawn("b", func() {
					for i := 0; i < yields; i++ {
						s.Yield()
					}
				})
			})
			end = host.Now()
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if !(elapse(50) > elapse(5)) {
		t.Fatal("more context switches did not consume more virtual time")
	}
}

func TestEventLogRecordsSchedulerActivity(t *testing.T) {
	log := trace.NewLog(256)
	s := NewSched(machine.NewRealHost(machine.Modern()), &trace.Counters{},
		Options{Name: "logged", EventLog: log})
	err := s.Run(func() {
		w := s.Spawn("worker", func() {
			s.Yield()
			s.Block()
		})
		s.Yield()
		s.Yield()
		s.Unblock(w)
		s.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.EventKind]int{}
	for _, e := range log.Snapshot() {
		kinds[e.Kind]++
	}
	for _, want := range []trace.EventKind{trace.EvSpawn, trace.EvSwitchIn,
		trace.EvBlock, trace.EvUnblock, trace.EvExit} {
		if kinds[want] == 0 {
			t.Errorf("no %v events recorded; dump:\n%s", want, log.Dump())
		}
	}
}
