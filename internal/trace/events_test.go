package trace

import (
	"sync"
	"testing"

	"chant/internal/sim"
)

func TestLogRetainsInOrder(t *testing.T) {
	l := NewLog(8)
	for i := 0; i < 5; i++ {
		l.Add(sim.Time(i), EvSwitchIn, int32(i))
	}
	snap := l.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("retained %d of 5", len(snap))
	}
	for i, e := range snap {
		if e.Thread != int32(i) {
			t.Fatalf("order broken: %v", snap)
		}
	}
}

func TestLogRingEviction(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 10; i++ {
		l.Add(sim.Time(i), EvBlock, int32(i))
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d, want 4", len(snap))
	}
	for i, e := range snap {
		if e.Thread != int32(6+i) {
			t.Fatalf("eviction kept wrong events: %v", snap)
		}
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d, want 10", l.Total())
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(1, EvSpawn, 0) // must not panic
	if l.Snapshot() != nil || l.Total() != 0 {
		t.Fatal("nil log returned data")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvSpawn, EvSwitchIn, EvPartialSwitch, EvYieldFast,
		EvBlock, EvUnblock, EvExit, EvCancel, EvIdle}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "invalid" || seen[s] {
			t.Errorf("kind %d stringifies badly: %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(200).String() != "invalid" {
		t.Error("unknown kind not flagged")
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	l := NewLog(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Add(sim.Time(i), EvSwitchIn, 0)
			}
		}()
	}
	wg.Wait()
	if l.Total() != 4000 {
		t.Fatalf("Total = %d, want 4000", l.Total())
	}
	if len(l.Snapshot()) != 128 {
		t.Fatalf("retained %d, want 128", len(l.Snapshot()))
	}
}

func TestLogDefaultCapacity(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < 2000; i++ {
		l.Add(sim.Time(i), EvExit, 0)
	}
	if got := len(l.Snapshot()); got != 1024 {
		t.Fatalf("default capacity retained %d, want 1024", got)
	}
}
