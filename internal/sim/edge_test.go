package sim

import "testing"

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
