package trace

import (
	"sync"

	"chant/internal/sim"
)

// EventKind classifies scheduler and messaging events for the debug log.
type EventKind uint8

// Event kinds recorded by the runtime when a Log is attached.
const (
	EvSpawn EventKind = iota
	EvSwitchIn
	EvPartialSwitch
	EvYieldFast
	EvBlock
	EvUnblock
	EvExit
	EvCancel
	EvIdle
)

func (k EventKind) String() string {
	switch k {
	case EvSpawn:
		return "spawn"
	case EvSwitchIn:
		return "switch-in"
	case EvPartialSwitch:
		return "partial-switch"
	case EvYieldFast:
		return "yield-fast"
	case EvBlock:
		return "block"
	case EvUnblock:
		return "unblock"
	case EvExit:
		return "exit"
	case EvCancel:
		return "cancel"
	case EvIdle:
		return "idle"
	}
	return "invalid"
}

// Event is one recorded occurrence.
type Event struct {
	At     sim.Time
	Kind   EventKind
	Thread int32
}

// Log is a fixed-capacity ring of the most recent events, cheap enough to
// keep attached while debugging scheduler behaviour. The zero Log is
// disabled; create one with NewLog. Safe for concurrent append (real-mode
// transports may record from other goroutines).
type Log struct {
	mu    sync.Mutex
	ring  []Event
	next  int
	total uint64
}

// NewLog creates a log retaining the last capacity events.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Log{ring: make([]Event, 0, capacity)}
}

// Add records an event. Nil logs drop it, so call sites need no guards.
func (l *Log) Add(at sim.Time, kind EventKind, thread int32) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Event{At: at, Kind: kind, Thread: thread}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next = (l.next + 1) % cap(l.ring)
	}
	l.total++
}

// Total reports how many events were ever recorded (including evicted).
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the retained events, oldest first.
func (l *Log) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.ring))
	if len(l.ring) < cap(l.ring) {
		return append(out, l.ring...)
	}
	out = append(out, l.ring[l.next:]...)
	return append(out, l.ring[:l.next]...)
}
