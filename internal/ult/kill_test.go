package ult

import (
	"errors"
	"testing"
)

func TestKillCancelsEveryThread(t *testing.T) {
	s := newTestSched()
	var canceled []int
	err := s.Run(func() {
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn("w", func() {
				defer func() {
					if r := recover(); r != nil {
						canceled = append(canceled, i)
						panic(r) // re-raise so the trampoline unwinds
					}
				}()
				for {
					s.Yield()
				}
			})
		}
		s.Yield() // let the workers start spinning
		s.Kill()
		s.Yield() // the kill takes effect at the next scheduling point
	})
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("Run returned %v, want ErrKilled", err)
	}
	if len(canceled) != 4 {
		t.Fatalf("%d of 4 spinning threads were canceled: %v", len(canceled), canceled)
	}
	if !s.killed.Load() {
		t.Error("killed flag false after Kill")
	}
}

func TestKillUnwindsBlockedJoiner(t *testing.T) {
	s := newTestSched()
	err := s.Run(func() {
		spinner := s.Spawn("spin", func() {
			for {
				s.Yield()
			}
		})
		s.Spawn("killer", func() {
			s.Yield()
			s.Kill()
		})
		// Main blocks joining the spinner; the kill must cancel the spinner
		// and unwind this join rather than deadlocking.
		if _, jerr := s.Join(spinner); !errors.Is(jerr, ErrCanceled) {
			panic("join survived the kill: " + jerr.Error())
		}
	})
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("Run returned %v, want ErrKilled", err)
	}
}

func TestKilledSchedulerStillReportsDoneThreads(t *testing.T) {
	s := newTestSched()
	ran := false
	err := s.Run(func() {
		w := s.Spawn("w", func() { ran = true })
		if _, jerr := s.Join(w); jerr != nil {
			panic(jerr)
		}
		s.Kill()
		s.Yield()
	})
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("Run returned %v, want ErrKilled", err)
	}
	if !ran {
		t.Error("completed thread lost its work to the kill")
	}
}
