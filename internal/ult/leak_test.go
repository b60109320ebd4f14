package ult

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestReapLeavesNoGoroutines pins the reap path: when Run returns early —
// the threads deadlocked, or the scheduler was killed — every thread that had
// started, blocked or spinning, has been unwound, and none is left behind as
// a suspended coroutine.
func TestReapLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		want error
		main func(s *Sched)
	}{
		{"ErrDeadlock", ErrDeadlock, func(s *Sched) {
			mu := NewMutex(s)
			mu.Lock()
			for i := 0; i < 4; i++ {
				s.Spawn("stuck", mu.Lock)
			}
			s.Spawn("unstarted", func() {})
			s.Block() // nobody will ever unblock main, or release mu
		}},
		{"ErrKilled", ErrKilled, func(s *Sched) {
			for i := 0; i < 4; i++ {
				s.Spawn("spin", func() {
					for {
						s.Yield()
					}
				})
			}
			s.SpawnWith("daemon", func() { s.Block() }, SpawnOpts{Daemon: true})
			s.Yield()
			s.Kill()
			s.Yield()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := newTestSched()
			if err := s.Run(func() { tc.main(s) }); !errors.Is(err, tc.want) {
				t.Fatalf("Run returned %v, want %v", err, tc.want)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
