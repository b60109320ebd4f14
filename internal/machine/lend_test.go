package machine

import (
	"sync/atomic"
	"testing"
	"time"
)

// entered runs body as h's PE on a new goroutine, its home, and returns a
// channel that yields what Enter panicked with (nil if it returned). body
// gets Enter's turn hook, which it calls where a thread scheduler would.
func entered(h *RealHost, body func(turn func())) <-chan any {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		h.Enter(body)
	}()
	return done
}

// waitIdle waits until h's PE has parked in Idle and home has published it.
func waitIdle(t *testing.T, h *RealHost) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.state.Load() != peIdle {
		if time.Now().After(deadline) {
			t.Fatal("the PE never went idle")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func finished(t *testing.T, done <-chan any) any {
	t.Helper()
	select {
	case v := <-done:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("Enter did not return")
	}
	return nil
}

// An Interrupt raised inside Lend's deliver wakes no one: the lender runs
// the idle PE itself until it parks again, and home is never woken.
func TestRealHostLendRunsIdlePE(t *testing.T) {
	h := NewRealHost(Modern())
	var passes atomic.Int32
	done := entered(h, func(turn func()) {
		for i := 0; i < 3; i++ {
			h.Idle()
			turn() // the woken thread's turn
			passes.Add(1)
		}
	})
	for i := int32(1); i <= 3; i++ {
		waitIdle(t, h)
		h.Lend(h.Interrupt)
		if got := passes.Load(); got != i {
			t.Fatalf("after lend %d the PE made %d passes: it did not run on the lender", i, got)
		}
	}
	if v := finished(t, done); v != nil {
		t.Fatal(v)
	}
	if home, lent := h.Wakeups(); home != 0 || lent != 3 {
		t.Fatalf("Wakeups() = %d home, %d lent; want 0, 3", home, lent)
	}
}

// Every other Interrupt wakes home, which resumes the PE.
func TestRealHostInterruptWakesHome(t *testing.T) {
	h := NewRealHost(Modern())
	done := entered(h, func(func()) { h.Idle() })
	waitIdle(t, h)
	h.Interrupt()
	if v := finished(t, done); v != nil {
		t.Fatal(v)
	}
	if home, lent := h.Wakeups(); home != 1 || lent != 0 {
		t.Fatalf("Wakeups() = %d home, %d lent; want 1, 0", home, lent)
	}
}

// A lend runs one thread turn. A lent PE that never idles — a Thread-polls
// waiter that tests and yields — goes home as its second turn begins, and
// Relax does not end the lend before that. The poller stops only on a flag
// set after Lend returns, so a lend that never ends runs past the deadline.
func TestRealHostLendEndsAtSecondTurn(t *testing.T) {
	h := NewRealHost(Modern())
	var stop atomic.Bool
	var turnsOnLender atomic.Int32
	done := entered(h, func(turn func()) {
		h.Idle()
		for !stop.Load() {
			turn()
			if h.lent.Load() {
				turnsOnLender.Add(1)
			}
			h.Relax() // the missed test
		}
	})
	waitIdle(t, h)
	lent := make(chan struct{})
	go func() {
		h.Lend(h.Interrupt)
		close(lent)
	}()
	select {
	case <-lent:
	case <-time.After(10 * time.Second):
		t.Fatal("the lend never ended")
	}
	stop.Store(true)
	if v := finished(t, done); v != nil {
		t.Fatal(v)
	}
	if got := turnsOnLender.Load(); got != 1 {
		t.Fatalf("%d turns ran on the lender, want 1", got)
	}
	if home, lent := h.Wakeups(); home != 1 || lent != 1 {
		t.Fatalf("Wakeups() = %d home, %d lent; want 1, 1", home, lent)
	}
}

// One body runs at a time: Enter while a body runs panics.
func TestRealHostEnterWhileEntered(t *testing.T) {
	h := NewRealHost(Modern())
	done := entered(h, func(func()) { h.Enter(func(func()) {}) })
	if v := finished(t, done); v == nil {
		t.Fatal("a nested Enter did not panic")
	}
}

// A PE that finishes on its lender lets Enter return on home, and a panic
// there surfaces from Enter with its own value, not on the lender.
func TestRealHostEndWhileLent(t *testing.T) {
	for _, boom := range []any{nil, "boom while lent"} {
		h := NewRealHost(Modern())
		done := entered(h, func(func()) {
			h.Idle()
			if boom != nil {
				panic(boom)
			}
		})
		waitIdle(t, h)
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("the lender panicked with %v", v)
				}
			}()
			h.Lend(h.Interrupt)
		}()
		if v := finished(t, done); v != boom {
			t.Fatalf("Enter ended with %v, want %v", v, boom)
		}
		if h.in != nil || h.state.Load() != peRunning {
			t.Fatal("the host was not reset after Enter")
		}
	}
}
