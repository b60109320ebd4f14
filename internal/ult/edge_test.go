package ult

import (
	"errors"
	"testing"

	"chant/internal/machine"
	"chant/internal/trace"
)

// Edge-case and interaction tests beyond the basic suite.

func TestCancelCondWaiter(t *testing.T) {
	s := newTestSched()
	m := NewMutex(s)
	c := NewCond(m)
	err := s.Run(func() {
		victim := s.Spawn("victim", func() {
			m.Lock()
			c.Wait()
			t.Error("canceled cond waiter resumed body")
			m.Unlock()
		})
		s.Yield() // victim waits
		s.Cancel(victim)
		if _, err := s.Join(victim); !errors.Is(err, ErrCanceled) {
			t.Errorf("join: %v", err)
		}
		// The condition variable must be clean: signaling must not panic
		// or wake a ghost.
		m.Lock()
		c.Signal()
		m.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCanceledMutexOwnerLeavesLockHeld(t *testing.T) {
	// A canceled thread unwinds without releasing locks it holds (as with
	// pthreads without cleanup handlers); waiters then deadlock, and the
	// scheduler must report it rather than hang.
	s := newTestSched()
	m := NewMutex(s)
	err := s.Run(func() {
		owner := s.Spawn("owner", func() {
			m.Lock()
			s.Block() // parked while holding the lock
			m.Unlock()
		})
		s.Yield()
		s.Cancel(owner)
		s.Join(owner)
		if !m.Locked() {
			t.Error("cancel released the mutex; expected it to stay held")
		}
		waiter := s.Spawn("waiter", func() { m.Lock() })
		s.Join(waiter) // deadlock: detected below
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestPendingThreadSkipsYieldFastPath(t *testing.T) {
	// A lone thread with a pending request must NOT take the yield fast
	// path: the scheduler has to run its pending test (this is exactly
	// Table 2's Thread (SP) single-thread case).
	host := machine.NewRealHost(machine.Modern())
	s := NewSched(host, &trace.Counters{}, Options{Name: "test"})
	tries := 0
	err := s.Run(func() {
		me := s.Current()
		me.Pending = func() bool {
			tries++
			// Each test moves the request on, and a request that moves
			// announces it (see TCB.Pending): the lone thread's missed pass
			// parks in Host.Missed until an Interrupt.
			host.Interrupt()
			return tries >= 4
		}
		s.Yield()
		if tries != 4 {
			t.Errorf("pending tested %d times, want 4", tries)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Counters().PartialSwitches.Load(); got != 4 {
		t.Errorf("PartialSwitches = %d, want 4", got)
	}
}

func TestPendingClearedOnCancel(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		w := s.Spawn("w", func() {
			me := s.Current()
			me.Pending = func() bool { return false } // never satisfied
			s.Yield()
			t.Error("canceled pending thread resumed normally")
		})
		s.Yield() // w parks with its pending set
		s.Cancel(w)
		if _, err := s.Join(w); !errors.Is(err, ErrCanceled) {
			t.Errorf("join: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExitFromNestedCall(t *testing.T) {
	s := newTestSched()
	cleanup := 0
	err := s.Run(func() {
		w := s.Spawn("w", func() {
			defer func() { cleanup++ }()
			func() {
				defer func() { cleanup++ }()
				s.Exit("deep")
			}()
		})
		v, err := s.Join(w)
		if err != nil || v != "deep" {
			t.Errorf("join = (%v, %v)", v, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cleanup != 2 {
		t.Fatalf("defers ran %d times during Exit unwind, want 2", cleanup)
	}
}

func TestCancelRunsDefers(t *testing.T) {
	s := newTestSched()
	cleaned := false
	err := s.Run(func() {
		w := s.Spawn("w", func() {
			defer func() { cleaned = true }()
			s.Block()
		})
		s.Yield()
		s.Cancel(w)
		s.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("cancellation unwind skipped the thread's defers")
	}
}

func TestSpawnInsideThread(t *testing.T) {
	s := newTestSched()
	depth3 := false
	err := s.Run(func() {
		a := s.Spawn("a", func() {
			b := s.Spawn("b", func() {
				c := s.Spawn("c", func() { depth3 = true })
				s.Join(c)
			})
			s.Join(b)
		})
		s.Join(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !depth3 {
		t.Fatal("nested spawns did not run")
	}
}

func TestEqualPriorityFIFOStable(t *testing.T) {
	s := newTestSched()
	var order []int
	err := s.Run(func() {
		for i := 0; i < 6; i++ {
			i := i
			s.SpawnWith("w", func() { order = append(order, i) }, SpawnOpts{Priority: 2})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-priority FIFO broken: %v", order)
		}
	}
}

func TestJoinerCanceledWhileWaiting(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		target := s.Spawn("target", func() {
			for i := 0; i < 5; i++ {
				s.Yield()
			}
		})
		joiner := s.Spawn("joiner", func() {
			s.Join(target)
			t.Error("canceled joiner returned from Join")
		})
		s.Yield() // joiner blocks on target
		s.Cancel(joiner)
		if _, err := s.Join(joiner); !errors.Is(err, ErrCanceled) {
			t.Errorf("join of joiner: %v", err)
		}
		// Target must still be joinable and unaffected.
		if _, err := s.Join(target); err != nil {
			t.Errorf("join of target: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockedThreadNotScheduled(t *testing.T) {
	s := newTestSched()
	ran := 0
	err := s.Run(func() {
		w := s.Spawn("sleeper", func() {
			s.Block()
			ran++
		})
		for i := 0; i < 10; i++ {
			s.Yield() // sleeper must never run while blocked
		}
		if ran != 0 {
			t.Error("blocked thread ran")
		}
		s.Unblock(w)
		s.Join(w)
		if ran != 1 {
			t.Error("unblocked thread did not run")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCountersMatchActivity(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		a := s.Spawn("a", func() {
			for i := 0; i < 4; i++ {
				s.Yield()
			}
		})
		s.Join(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.ThreadsCreated.Load() != 2 { // main + a
		t.Errorf("ThreadsCreated = %d, want 2", c.ThreadsCreated.Load())
	}
	if c.Yields.Load() < 4 {
		t.Errorf("Yields = %d, want >= 4", c.Yields.Load())
	}
	if c.FullSwitches.Load() == 0 {
		t.Error("no switches recorded")
	}
}

// TestDispatchPanicSurfacesFromRun: the scheduler now runs on the goroutine
// of whichever thread gives up the processor, so a panic at a scheduling
// point (a pre-schedule hook here; a Pending check or an invariant check
// take the same route) fires on a thread's goroutine. It must still reach
// the caller of Run, wrapped like a thread-body panic and naming the thread
// that was dispatching, whether that thread was parking or had just exited.
func TestDispatchPanicSurfacesFromRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		thread string
		main   func(s *Sched, arm func())
	}{
		{"parking thread dispatches", "yielder", func(s *Sched, arm func()) {
			s.Spawn("yielder", func() {
				arm()
				s.Yield()
			})
			for {
				s.Yield()
			}
		}},
		{"blocking thread dispatches", "main", func(s *Sched, arm func()) {
			s.Spawn("other", func() {})
			arm()
			s.Block()
		}},
		{"exiting thread dispatches", "short", func(s *Sched, arm func()) {
			s.Spawn("short", func() { arm() })
			for {
				s.Yield()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSched()
			armed := false
			s.SetPreSchedule(func() {
				if armed {
					panic("hook boom")
				}
			})
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok || pe.Value != "hook boom" || pe.Thread != tc.thread {
					t.Fatalf("recovered %+v, want *PanicError{Thread: %q, Value: hook boom}", pe, tc.thread)
				}
			}()
			s.Run(func() { tc.main(s, func() { armed = true }) })
			t.Fatal("Run returned instead of propagating the hook's panic")
		})
	}
}

// TestPendingPanicSurfacesFromRun is the same for a Scheduler-polls (PS)
// pending check, which the parked thread itself now evaluates.
func TestPendingPanicSurfacesFromRun(t *testing.T) {
	s := newTestSched()
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok || pe.Value != "pending boom" || pe.Thread != "main" {
			t.Fatalf("recovered %+v, want *PanicError{Thread: main, Value: pending boom}", pe)
		}
	}()
	s.Run(func() {
		s.Current().Pending = func() bool { panic("pending boom") }
		s.Yield()
	})
	t.Fatal("Run returned instead of propagating the pending check's panic")
}
