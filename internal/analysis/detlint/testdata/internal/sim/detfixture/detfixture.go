// Package detfixture seeds nondeterminism violations for the detlint
// analyzer inside a simulation-critical package path (internal/sim/...),
// next to deterministic constructs and suppressed sites that must stay
// silent.
package detfixture

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

var sink any

func wallClock() {
	sink = time.Now()            // want `time\.Now in simulation-critical package .* wall clock is nondeterministic`
	time.Sleep(time.Millisecond) // want `time\.Sleep in simulation-critical package`
	var t time.Time
	sink = time.Since(t) // want `time\.Since in simulation-critical package`
	sink = time.Now()    //chant:allow-nondet fixture: sanctioned wall-clock read
	//chant:allow-nondet fixture: a marker alone on the line above also suppresses
	sink = time.Now()
	// A reasonless marker (next line) must NOT suppress the diagnostic.
	//chant:allow-nondet
	sink = time.Now() // want `time\.Now`
}

func globalRand() int {
	n := rand.Intn(10)                 // want `global rand\.Intn in simulation-critical package .* shared PRNG state`
	n += int(rand.Int63())             // want `global rand\.Int63 in simulation-critical package`
	src := rand.New(rand.NewSource(1)) // want `global rand\.New` `global rand\.NewSource`
	return n + src.Intn(10)            // ok: method on an explicitly-seeded instance
}

func rawGoroutine(events chan<- int) {
	go func() { // want `raw go statement in simulation-critical package`
		events <- 1
	}()
}

// timerCallback: the callback runs on a runtime timer goroutine, outside
// every scheduler, so the launch site is reported like a raw go statement.
func timerCallback(events chan<- int) {
	time.AfterFunc(time.Millisecond, func() { events <- 1 }) // want `time\.AfterFunc in simulation-critical package`
}

func mapOrder(counts map[string]int, emit func(string)) []string {
	for name := range counts { // want `range over map with order-sensitive effects .* sort the keys first`
		emit(name)
	}
	// Collecting keys with builtins and sorting is the sanctioned pattern.
	keys := make([]string, 0, len(counts))
	for name := range counts {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	for name := range counts { //chant:allow-nondet fixture: effect is order-insensitive
		emit(name)
	}
	return keys
}

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func pooled() {
	b := bufPool.Get() // want `sync\.Pool\.Get in simulation-critical package .* pool reuse order is scheduler- and GC-dependent`
	bufPool.Put(b)     // want `sync\.Pool\.Put in simulation-critical package`
	//chant:allow-nondet fixture: reuse cannot be observed, the value is never read
	b = bufPool.Get()
	bufPool.Put(b) //chant:allow-nondet fixture: reuse cannot be observed, the value is never read
}

// freeList is the sanctioned deterministic recycling shape: a plain LIFO
// under the owner's lock.
type freeList struct{ free []*int }

func (f *freeList) get() *int {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return x
	}
	return new(int)
}

func selects(a, b chan int) int {
	select { // want `select with 2 communication cases in simulation-critical package`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func singleSelect(a chan int) int {
	// One communication case plus default is deterministic.
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}

// A trailing marker sanctions its own line only: the read directly below it
// is still reported.
func trailingMarker() {
	a := time.Now() //chant:allow-nondet fixture: covers this line, not the next
	b := time.Now() // want `time\.Now in simulation-critical package`
	sink = b.Sub(a)
}
