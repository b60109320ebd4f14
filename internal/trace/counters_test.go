package trace

import (
	"math"
	"sync"
	"testing"

	"chant/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }

func TestWaitingIntegratorConstant(t *testing.T) {
	var c Counters
	c.WaitBegin(us(0))
	c.WaitBegin(us(0))
	// Two threads waiting for the whole window.
	if got := c.AvgWaiting(us(100)); math.Abs(got-2) > 1e-9 {
		t.Fatalf("AvgWaiting = %v, want 2", got)
	}
	if c.MaxWaiting() != 2 {
		t.Fatalf("MaxWaiting = %d, want 2", c.MaxWaiting())
	}
}

func TestWaitingIntegratorStep(t *testing.T) {
	var c Counters
	c.WaitBegin(us(0))  // 1 waiting over [0,50)
	c.WaitBegin(us(50)) // 2 waiting over [50,100)
	got := c.AvgWaiting(us(100))
	if math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("AvgWaiting = %v, want 1.5", got)
	}
}

func TestWaitingIntegratorEnd(t *testing.T) {
	var c Counters
	c.WaitBegin(us(0))
	c.WaitEndAt(us(25)) // 1 waiting over [0,25), 0 over [25,100)
	got := c.AvgWaiting(us(100))
	if math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("AvgWaiting = %v, want 0.25", got)
	}
}

func TestWaitingNeverStartedIsZero(t *testing.T) {
	var c Counters
	if got := c.AvgWaiting(us(1000)); got != 0 {
		t.Fatalf("AvgWaiting with no waits = %v, want 0", got)
	}
}

func TestNegativeWaitingPanics(t *testing.T) {
	var c Counters
	defer func() {
		if recover() == nil {
			t.Error("WaitEndAt below zero did not panic")
		}
	}()
	c.WaitBegin(us(0))
	c.WaitEndAt(us(1))
	c.WaitEndAt(us(2))
}

func TestSnapshotAdd(t *testing.T) {
	var a, b Counters
	a.MsgTestCalls.Add(10)
	a.FullSwitches.Add(3)
	b.MsgTestCalls.Add(5)
	b.MsgTestFails.Add(2)
	sa := a.Snap(us(100))
	sb := b.Snap(us(100))
	sa.Add(sb)
	if sa.MsgTestCalls != 15 || sa.FullSwitches != 3 || sa.MsgTestFails != 2 {
		t.Fatalf("summed snapshot wrong: %+v", sa)
	}
}

func TestSnapshotAddMaxWaiting(t *testing.T) {
	var a, b Counters
	a.WaitBegin(us(0))
	b.WaitBegin(us(0))
	b.WaitBegin(us(1))
	sa := a.Snap(us(10))
	sa.Add(b.Snap(us(10)))
	if sa.MaxWaiting != 2 {
		t.Fatalf("MaxWaiting after Add = %d, want 2", sa.MaxWaiting)
	}
}

func TestCountersConcurrentUpdates(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Sends.Add(1)
				c.MsgTestCalls.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Sends.Load(); got != 8000 {
		t.Fatalf("Sends = %d, want 8000", got)
	}
}

func TestWaitEndAtBeforeWindowClamped(t *testing.T) {
	// Regression: a completion stamped before the first wait event (e.g.
	// a receive handle that completed before any thread was integrated,
	// or a failure detector marking a peer dead in the past) used to
	// subtract [at, lastAt] without clamping at to startAt, driving the
	// Figure-13 integral negative.
	var c Counters
	c.WaitBegin(us(100))
	c.WaitEndAt(us(40)) // before the window even opened
	if got := c.AvgWaiting(us(200)); got < 0 {
		t.Fatalf("AvgWaiting = %v, want >= 0", got)
	}
	// The thread's waiting contribution is fully removed: average is 0.
	if got := c.AvgWaiting(us(200)); math.Abs(got) > 1e-9 {
		t.Fatalf("AvgWaiting = %v, want 0 (retroactive end removed the only wait)", got)
	}
}

func TestWaitEndAtRetroactiveExact(t *testing.T) {
	// Two threads wait from 0; one's receive completed at 25 but was only
	// observed at 50. True integral over [0,100]: one thread for 25us,
	// the other for 100us => avg 1.25.
	var c Counters
	c.WaitBegin(us(0))
	c.WaitBegin(us(0))
	c.WaitBegin(us(50)) // forces lastAt to 50 with 2 waiting over [0,50)
	c.WaitEndAt(us(50)) // the helper thread leaves immediately
	c.WaitEndAt(us(25)) // retroactive completion inside the window
	got := c.AvgWaiting(us(100))
	if math.Abs(got-1.25) > 1e-9 {
		t.Fatalf("AvgWaiting = %v, want 1.25", got)
	}
}

func TestAvgWaitingNeverNegative(t *testing.T) {
	// Brute adversarial sequence mixing forward updates and maximally
	// retroactive completions; the average must stay non-negative at
	// every probe point.
	var c Counters
	c.WaitBegin(us(1000))
	for i := 0; i < 8; i++ {
		c.WaitBegin(us(1000 + int64(i)*10))
	}
	for i := 0; i < 9; i++ {
		c.WaitEndAt(us(0)) // far before the window
		if got := c.AvgWaiting(us(2000)); got < 0 {
			t.Fatalf("AvgWaiting = %v after %d retroactive ends, want >= 0", got, i+1)
		}
	}
}
