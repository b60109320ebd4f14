package machine

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"chant/internal/sim"
)

func TestParagonLatencyMatchesTable2Fit(t *testing.T) {
	m := Paragon1994()
	// End-to-end process message time = send + wire + recv; compare with the
	// linear fit of the paper's Table 2 "Process" column.
	cases := []struct {
		size    int
		paperUs float64
		tolPct  float64
	}{
		{1024, 667.1, 5},
		{2048, 917.0, 10},
		{4096, 1639.3, 5},
		{8192, 2873.5, 5},
		{16384, 5531.8, 5},
	}
	for _, c := range cases {
		got := (m.SendOverhead + m.MsgLatency(c.size) + m.RecvOverhead).Micros()
		diff := (got - c.paperUs) / c.paperUs * 100
		if diff < 0 {
			diff = -diff
		}
		if diff > c.tolPct {
			t.Errorf("size %d: modeled %.1fus vs paper %.1fus (%.1f%% > %.1f%%)",
				c.size, got, c.paperUs, diff, c.tolPct)
		}
	}
}

func TestMsgLatencyMonotonic(t *testing.T) {
	m := Paragon1994()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.MsgLatency(x) <= m.MsgLatency(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostOrderingInvariants(t *testing.T) {
	for _, m := range []*Model{Paragon1994(), Modern()} {
		if m.PartialSwitch >= m.FullSwitch {
			t.Errorf("%s: partial switch must be cheaper than full switch", m.Name)
		}
		if m.YieldNoSwitch >= m.PartialSwitch {
			t.Errorf("%s: no-switch yield must be cheaper than partial switch", m.Name)
		}
		if m.MsgTestHit > m.MsgTestMiss {
			t.Errorf("%s: a hit test should not cost more than a miss", m.Name)
		}
		if m.NetBase <= 0 {
			t.Errorf("%s: zero wire latency would let messages arrive in the past", m.Name)
		}
	}
}

func TestCopyCost(t *testing.T) {
	m := Paragon1994()
	if m.CopyCost(0) != 0 {
		t.Error("copying zero bytes should be free")
	}
	if got := m.CopyCost(1000); got != sim.Duration(20000) {
		t.Errorf("CopyCost(1000) = %v, want 20us", got)
	}
}

func TestSimHostChargesVirtualTime(t *testing.T) {
	k := sim.NewKernel()
	model := Paragon1994()
	var elapsed sim.Duration
	k.Spawn("pe", func(p *sim.Proc) {
		h := NewSimHost(p, model)
		start := h.Now()
		h.Charge(5 * sim.Microsecond)
		h.Compute(1000) // 1000 * 38ns = 38us
		h.Relax()       // free: no simulated event stream may depend on it
		elapsed = h.Now().Sub(start)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	want := 5*sim.Microsecond + 38*sim.Microsecond
	if elapsed != want {
		t.Fatalf("elapsed %v, want %v", elapsed, want)
	}
}

func TestSimHostIdleInterrupt(t *testing.T) {
	k := sim.NewKernel()
	model := Paragon1994()
	var wokenAt sim.Time
	var h *SimHost
	k.Spawn("pe", func(p *sim.Proc) {
		h = NewSimHost(p, model)
		h.Idle()
		wokenAt = h.Now()
	})
	k.At(77*sim.Time(sim.Microsecond), func() { h.Interrupt() })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if wokenAt != sim.Time(77*sim.Microsecond) {
		t.Fatalf("woken at %v, want 77us", wokenAt)
	}
}

// TestSimHostPauseAdvancesRecheckGap pins the simulated idle step: Pause
// passes exactly IdleRecheckGap of virtual time without parking, so another
// process's events inside the gap run but nothing later does, and a signal
// that lands during the pause does not cut it short — it stays pending and
// satisfies the next Idle at once.
func TestSimHostPauseAdvancesRecheckGap(t *testing.T) {
	k := sim.NewKernel()
	model := Paragon1994()
	gap := model.IdleRecheckGap
	var h *SimHost
	var paused, idled sim.Duration
	var laterRan bool
	k.Spawn("pe", func(p *sim.Proc) {
		h = NewSimHost(p, model)
		start := h.Now()
		h.Pause()
		paused = h.Now().Sub(start)
		if laterRan {
			t.Error("Pause let a process run whose event lies past the gap")
		}
		start = h.Now()
		h.Idle() // the signal sent during the pause is still pending
		idled = h.Now().Sub(start)
	})
	k.Spawn("other", func(p *sim.Proc) {
		p.Advance(gap / 2)
		h.Interrupt()
		p.Advance(gap)
		laterRan = true
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if paused != gap {
		t.Errorf("Pause passed %v, want IdleRecheckGap %v", paused, gap)
	}
	if idled != 0 {
		t.Errorf("Idle after an interrupted Pause waited %v, want 0", idled)
	}
}

// TestRealHostPauseInterrupt pins the real idle step: Pause parks like
// Idle, returns once another goroutine interrupts it, and returns at once
// on an interrupt that was already pending.
func TestRealHostPauseInterrupt(t *testing.T) {
	h := NewRealHost(Modern())
	done := make(chan struct{})
	go func() {
		h.Pause()
		close(done)
	}()
	go func() {
		time.Sleep(2 * time.Millisecond) // past the spin phase, into the park
		h.Interrupt()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Pause did not return after an Interrupt from another goroutine")
	}

	h.Interrupt() // before Pause: must satisfy the next Pause
	h.Pause()
}

func TestRealHostIdleInterrupt(t *testing.T) {
	h := NewRealHost(Modern())
	done := make(chan struct{})
	go func() {
		h.Idle()
		close(done)
	}()
	h.Interrupt()
	<-done // must not hang
}

func TestRealHostInterruptCoalesces(t *testing.T) {
	h := NewRealHost(Modern())
	h.Interrupt() // before Idle: must satisfy the next Idle
	done := make(chan struct{})
	go func() {
		h.Idle()
		close(done)
	}()
	<-done
}

func TestRealHostClockAdvances(t *testing.T) {
	h := NewRealHost(Modern())
	a := h.Now()
	h.Compute(100000)
	b := h.Now()
	if b < a {
		t.Fatal("real clock went backwards")
	}
}

// Two real-mode PEs compute at the same time; under -race this fails if
// Compute's sink is shared between hosts.
func TestRealHostsComputeConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		h := NewRealHost(Modern())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				h.Compute(1000)
			}
		}()
	}
	wg.Wait()
}
