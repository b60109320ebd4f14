package experiments

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines fails the test unless the goroutine count comes back down to
// base: every process and thread of a finished run must have unwound, not
// been left suspended.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the run, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunsLeaveNoGoroutines: a simulated run that returns has reaped every
// coroutine it created — the sim processes, each PE's threads and daemons,
// and, in the chaos cell, the threads of the scheduler that was killed by the
// crash as well as those of its restarted successor.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	t.Run("RunPolling", func(t *testing.T) {
		base := runtime.NumGoroutine()
		for _, p := range StandardPolicies {
			RunPolling(PollingConfig{Workers: 4, Iters: 5, Alpha: 100, Beta: 100, Policy: p})
		}
		waitGoroutines(t, base)
	})
	t.Run("chaos cell with crash and restart", func(t *testing.T) {
		base := runtime.NumGoroutine()
		r, err := RunChaos(recoverySoakConfig())
		if err != nil {
			t.Fatal(err)
		}
		if r.Total.Restarts != 1 || r.Faults.Crashes != 1 {
			t.Fatalf("cell did not crash and restart: restarts=%d crashes=%d", r.Total.Restarts, r.Faults.Crashes)
		}
		waitGoroutines(t, base)
	})
}
