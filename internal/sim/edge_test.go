package sim

import (
	"errors"
	"strings"
	"testing"
)

func TestSpawnAtFutureTime(t *testing.T) {
	k := NewKernel()
	var startedAt Time
	k.SpawnAt(500, "late", func(p *Proc) {
		startedAt = p.Now()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if startedAt != 500 {
		t.Fatalf("started at %v, want 500", startedAt)
	}
}

func TestStopFromProcess(t *testing.T) {
	k := NewKernel()
	reached := false
	k.Spawn("stopper", func(p *Proc) {
		p.Advance(10)
		k.Stop()
	})
	k.At(1000, func() { reached = true })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("event after Stop ran")
	}
	if k.Now() != 10 {
		t.Fatalf("clock = %v, want 10", k.Now())
	}
}

func TestEventsCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.At(Time(i), func() {})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.Events != 5 {
		t.Fatalf("Events = %d, want 5", k.Events)
	}
}

func TestRunResumableAfterDeadline(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.At(100, func() { fired = append(fired, 100) })
	k.At(300, func() { fired = append(fired, 300) })
	if err := k.Run(200); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Fatalf("after first window: %v", fired)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != 300 {
		t.Fatalf("after second window: %v", fired)
	}
}

func TestProcDoneAndName(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("worker", func(p *Proc) { p.Advance(5) })
	if p.Name() != "worker" {
		t.Fatalf("Name = %q", p.Name())
	}
	if p.Done() {
		t.Fatal("done before running")
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("not done after running")
	}
}

func TestSignalStormCoalesces(t *testing.T) {
	k := NewKernel()
	wakeups := 0
	p := k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.WaitSignal()
			wakeups++
		}
	})
	// Many signals at one instant must not queue up individually: the
	// first wakes the sleeper, the rest coalesce into at most one pending
	// hint, so the third WaitSignal blocks until the later signal.
	k.At(10, func() {
		for i := 0; i < 10; i++ {
			p.Signal()
		}
	})
	k.At(20, func() { p.Signal() })
	k.At(30, func() { p.Signal() })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if wakeups != 3 {
		t.Fatalf("wakeups = %d, want 3", wakeups)
	}
}

func TestTwoKernelsIndependent(t *testing.T) {
	// Kernels must not share state: interleaved construction and runs.
	k1, k2 := NewKernel(), NewKernel()
	var t1, t2 Time
	k1.Spawn("a", func(p *Proc) { p.Advance(100); t1 = p.Now() })
	k2.Spawn("b", func(p *Proc) { p.Advance(200); t2 = p.Now() })
	if err := k1.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := k2.Run(0); err != nil {
		t.Fatal(err)
	}
	if t1 != 100 || t2 != 200 {
		t.Fatalf("cross-kernel interference: %v, %v", t1, t2)
	}
	if k1.Now() == k2.Now() {
		t.Fatal("kernels share a clock")
	}
}

// The tests below pin the kernel's edges under direct dispatch: there is no
// kernel goroutine, so deadlines, Stop, the end of the run and panics are all
// met by whichever process goroutine happens to be running the event loop.

func TestRunDeadlineTwiceResumesSuspendedProcs(t *testing.T) {
	k := NewKernel()
	steps := map[string]int{}
	for _, name := range []string{"a", "b"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Advance(100)
				steps[name]++
			}
		})
	}
	for _, w := range []struct {
		deadline, now Time
		steps         int
		done          bool
	}{
		{150, 150, 1, false}, // both suspended inside their second Advance
		{250, 250, 2, false}, // resumed there, suspended inside the third
		{0, 300, 3, true},
	} {
		if err := k.Run(w.deadline); err != nil {
			t.Fatalf("Run(%v): %v", w.deadline, err)
		}
		if k.Now() != w.now || steps["a"] != w.steps || steps["b"] != w.steps {
			t.Fatalf("after Run(%v): now=%v steps=%v, want now=%v and %d steps each", w.deadline, k.Now(), steps, w.now, w.steps)
		}
		for _, p := range k.procs {
			if p.Done() != w.done {
				t.Fatalf("after Run(%v): %s done=%v, want %v", w.deadline, p.Name(), p.Done(), w.done)
			}
		}
	}
}

func TestStopFromCallbackDispatchedByProc(t *testing.T) {
	k := NewKernel()
	var late, finished bool
	// The process is inside Advance, running the event loop itself, when
	// the callback at 10 stops the run.
	k.Spawn("p", func(p *Proc) {
		p.Advance(20)
		finished = true
	})
	k.At(10, k.Stop)
	k.At(15, func() { late = true })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 10 || late || finished {
		t.Fatalf("after Stop: now=%v late=%v finished=%v", k.Now(), late, finished)
	}
	// A stopped run is resumable: the suspended process picks up mid-Advance.
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 20 || !late || !finished {
		t.Fatalf("after resume: now=%v late=%v finished=%v", k.Now(), late, finished)
	}
}

func TestStopFromProcBodySuspendsAtNextYield(t *testing.T) {
	k := NewKernel()
	var after bool
	k.Spawn("stopper", func(p *Proc) {
		p.Advance(10)
		k.Stop()
		p.Advance(10) // the run ends here, not at Stop
		after = true
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 10 || after {
		t.Fatalf("after Stop: now=%v after=%v", k.Now(), after)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 20 || !after {
		t.Fatalf("after resume: now=%v after=%v", k.Now(), after)
	}
}

func TestLastProcFinishingEndsRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("short", func(p *Proc) { p.Advance(5) })
	k.Spawn("long", func(p *Proc) { p.Advance(50) })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 50 {
		t.Fatalf("clock = %v, want 50", k.Now())
	}
	// Two starts and two resumptions, no callbacks.
	if k.Events != 4 {
		t.Fatalf("Events = %d, want 4", k.Events)
	}
}

func TestParkedProcWithEmptyHeapDeadlockText(t *testing.T) {
	k := NewKernel()
	k.Spawn("fine", func(p *Proc) { p.Advance(10) })
	k.Spawn("stuck", func(p *Proc) {
		p.Advance(10)
		p.WaitSignal()
	})
	err := k.Run(0)
	const want = `sim: deadlock: live processes but no pending events (process "stuck" is parked at 0.010us)`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant  %s", err, want)
	}
}

func TestSignalToTheDispatchingProc(t *testing.T) {
	// Parked: the only process runs the event loop from inside WaitSignal,
	// so the callback that signals it is one it dispatched itself, and the
	// process it then finds due is itself.
	k := NewKernel()
	var wokeAt Time
	p := k.Spawn("p", func(p *Proc) {
		p.WaitSignal()
		wokeAt = p.Now()
	})
	k.At(10, p.Signal)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 10 || !p.Done() {
		t.Fatalf("parked proc woke at %v (done=%v), want 10", wokeAt, p.Done())
	}

	// Ready: signalled from inside its own Advance, the process is not
	// parked, so the signal coalesces into a hint for the next WaitSignal.
	k = NewKernel()
	var advancedAt Time
	p = k.Spawn("p", func(p *Proc) {
		p.Advance(20)
		advancedAt = p.Now()
		p.WaitSignal() // satisfied by the hint: no park, no time
		wokeAt = p.Now()
	})
	k.At(10, p.Signal)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if advancedAt != 20 || wokeAt != 20 || !p.Done() {
		t.Fatalf("ready proc: advanced at %v, woke at %v (done=%v), want 20, 20", advancedAt, wokeAt, p.Done())
	}
}

// TestCallbackPanicSurfacesFromRun: a callback that panics while a process
// goroutine is running the event loop must not kill the program from that
// goroutine; Run re-raises the original value on its caller's goroutine.
func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		body func(p *Proc)
	}{
		{"from Advance", func(p *Proc) { p.Advance(20) }},
		{"from WaitSignal", func(p *Proc) { p.WaitSignal() }},
		{"from proc exit", func(p *Proc) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			k.Spawn("p", tc.body)
			k.At(10, func() { panic(boom) })
			defer func() {
				if r := recover(); r != boom {
					t.Fatalf("recovered %v, want the callback's own panic value", r)
				}
			}()
			k.Run(0)
			t.Fatal("Run returned despite a panicking callback")
		})
	}
}

// TestPastEventFromDispatchedCallbackSurfacesFromRun is the same routing for
// the kernel's own guard: At's "scheduled in the past" panic, raised inside a
// callback that a process dispatched.
func TestPastEventFromDispatchedCallbackSurfacesFromRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.Advance(200) })
	k.At(100, func() { k.At(50, func() {}) })
	defer func() {
		r := recover()
		if s, ok := r.(string); !ok || !strings.HasPrefix(s, "sim: event scheduled in the past") {
			t.Fatalf("recovered %v", r)
		}
	}()
	k.Run(0)
	t.Fatal("Run returned despite an event scheduled in the past")
}
