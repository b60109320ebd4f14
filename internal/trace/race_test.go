package trace_test

import (
	"runtime"
	"sync"
	"testing"

	"chant/internal/machine"
	"chant/internal/trace"
	"chant/internal/ult"
)

// TestCountersSharedAcrossRealSchedulers hammers one Counters from several
// real-mode schedulers running concurrently — the sharing pattern a
// multi-process real run produces — while another goroutine snapshots it
// the whole time. Run under -race this proves Snap needs no lock against
// the atomic adders; the final snapshot checks no increment was lost.
func TestCountersSharedAcrossRealSchedulers(t *testing.T) {
	var c trace.Counters
	const scheds = 4
	const workers = 200

	done := make(chan struct{})
	var snapper sync.WaitGroup
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		for {
			select {
			case <-done:
				return
			default:
				var sum trace.Snapshot
				sum.Add(c.Snap(0))
				if sum.ThreadsCreated > scheds*(workers+1) {
					t.Error("snapshot observed more threads than ever created")
					return
				}
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < scheds; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := ult.NewSched(machine.NewRealHost(machine.Modern()), &c,
				ult.Options{Name: "race-test"})
			err := s.Run(func() {
				for j := 0; j < workers; j++ {
					s.Spawn("w", func() { s.Yield() })
				}
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(done)
	snapper.Wait()

	snap := c.Snap(0)
	if want := uint64(scheds * (workers + 1)); snap.ThreadsCreated != want {
		t.Errorf("ThreadsCreated = %d, want %d (concurrent adds lost)", snap.ThreadsCreated, want)
	}
	if want := uint64(scheds * workers); snap.Yields != want {
		t.Errorf("Yields = %d, want %d (concurrent adds lost)", snap.Yields, want)
	}
}
