package sim

import (
	"errors"
	"fmt"
	"iter"
	"reflect"
	"testing"
)

// TestAdvanceFromNestedCoroutine is the shape of a ult thread under SimHost:
// the process body drives an inner coroutine, and it is the inner coroutine's
// goroutine that advances the process's clock. The kernel must suspend and
// resume whichever goroutine called Advance. Every simulated golden depends
// on this; a Go release that stopped allowing it should fail here, by name.
func TestAdvanceFromNestedCoroutine(t *testing.T) {
	k := NewKernel()
	var got []string
	for _, pr := range []struct {
		name string
		step Duration
	}{{"a", 10}, {"b", 15}} {
		k.Spawn(pr.name, func(p *Proc) {
			next, stop := iter.Pull(func(yield func(int) bool) {
				for i := 0; i < 3; i++ {
					p.Advance(pr.step)
					got = append(got, fmt.Sprintf("%s%d@%d", pr.name, i, p.Now()))
					if !yield(i) {
						return
					}
				}
			})
			defer stop()
			for {
				if _, ok := next(); !ok {
					return
				}
				p.Advance(1) // and the body's own goroutine, in between
			}
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0@10", "b0@15", "a1@21", "b1@31", "a2@32", "b2@47"}
	if !reflect.DeepEqual(got, want) || k.Now() != 48 {
		t.Fatalf("order %v ending at %d, want %v ending at 48", got, k.Now(), want)
	}
}

// TestCallbackPanicBypassesProcRecover: a process that recovers around its
// own Advance must not swallow, or even see, a panic raised by a kernel
// callback while it is suspended there. One layer up that recover is
// ult.runBody's, and it would blame the panic on an innocent thread.
func TestCallbackPanicBypassesProcRecover(t *testing.T) {
	boom := errors.New("boom")
	k := NewKernel()
	var seen any
	k.Spawn("p", func(p *Proc) {
		defer func() { seen = recover() }()
		p.Advance(20)
	})
	k.At(10, func() { panic(boom) })
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Run's caller recovered %v, want the callback's own panic value", r)
			}
		}()
		k.Run(0)
		t.Fatal("Run returned despite a panicking callback")
	}()
	if seen != nil {
		t.Fatalf("the process body recovered %v from a callback's panic", seen)
	}
}

// TestProcBodyPanicSurfacesFromRun: a panic escaping a process body unwinds
// out of Run on its caller's goroutine, with the original value.
func TestProcBodyPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Advance(10)
		panic(boom)
	})
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("recovered %v, want the body's own panic value", r)
		}
	}()
	k.Run(0)
	t.Fatal("Run returned despite a panicking process")
}
