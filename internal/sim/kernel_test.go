package sim

import (
	"errors"
	"testing"
)

func TestCallbacksRunInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
}

func TestSameTimeCallbacksRunFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time callbacks out of FIFO order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel()
	var at Time
	k.At(100, func() {
		k.After(50, func() { at = k.Now() })
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestRunDeadlineStopsEarly(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(1000, func() { fired = true })
	if err := k.Run(500); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event after deadline fired")
	}
	if k.Now() != 500 {
		t.Fatalf("clock = %v, want deadline 500", k.Now())
	}
}

func TestPastEventPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestProcAdvanceInterleavesByTime(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Advance(100)
		order = append(order, "a100")
		p.Advance(100)
		order = append(order, "a200")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Advance(150)
		order = append(order, "b150")
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a100", "b150", "a200"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAdvanceZeroDoesNotYield(t *testing.T) {
	k := NewKernel()
	steps := 0
	k.Spawn("p", func(p *Proc) {
		before := p.Now()
		p.Advance(0)
		p.Advance(-5)
		if p.Now() != before {
			t.Error("non-positive Advance moved the clock")
		}
		steps++
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Fatal("process did not complete")
	}
}

func TestParkAndSignal(t *testing.T) {
	k := NewKernel()
	var wokenAt Time
	p := k.Spawn("sleeper", func(p *Proc) {
		p.WaitSignal()
		wokenAt = p.Now()
	})
	k.At(500, func() { p.Signal() })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 500 {
		t.Fatalf("woken at %v, want 500", wokenAt)
	}
}

func TestSignalBeforeWaitIsCoalesced(t *testing.T) {
	k := NewKernel()
	completed := false
	p := k.Spawn("p", func(p *Proc) {
		p.Advance(100) // signal arrives while we are runnable
		p.WaitSignal() // should not block
		completed = true
	})
	k.At(50, func() { p.Signal() })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("coalesced signal was lost; process never completed")
	}
}

func TestSignalFinishedProcIsNoop(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("p", func(p *Proc) {})
	k.At(10, func() { p.Signal() })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.state != procDone {
		t.Fatal("process not done")
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) {
		p.WaitSignal() // nobody will ever signal
	})
	err := k.Run(0)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestProcToProcSignal(t *testing.T) {
	k := NewKernel()
	var log []string
	var consumer *Proc
	consumer = k.Spawn("consumer", func(p *Proc) {
		p.WaitSignal()
		log = append(log, "consumed")
	})
	k.Spawn("producer", func(p *Proc) {
		p.Advance(10)
		log = append(log, "produced")
		consumer.Signal()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0] != "produced" || log[1] != "consumed" {
		t.Fatalf("log = %v", log)
	}
}

// Determinism: two identical simulations produce identical event traces.
func TestDeterminism(t *testing.T) {
	runOnce := func() []Time {
		k := NewKernel()
		var trace []Time
		rng := NewRNG(42)
		for i := 0; i < 4; i++ {
			k.Spawn("worker", func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Advance(Duration(rng.Intn(100) + 1))
					trace = append(trace, p.Now())
				}
			})
		}
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestManyProcsCompleteAndClockMonotonic(t *testing.T) {
	k := NewKernel()
	const n = 64
	done := 0
	last := Time(0)
	for i := 0; i < n; i++ {
		d := Duration(i + 1)
		k.Spawn("w", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Advance(d)
				if p.Now() < last {
					t.Error("virtual clock went backwards")
				}
				last = p.Now()
			}
			done++
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("%d of %d procs completed", done, n)
	}
}
