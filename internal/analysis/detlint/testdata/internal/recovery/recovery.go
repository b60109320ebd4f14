// Package recovery stands in for chant/internal/recovery: every package
// under internal/ is simulation-critical, the checkpoint stores included.
package recovery

import "time"

// MemStore stubs the in-memory checkpoint store.
type MemStore struct {
	created time.Time
	flushed chan struct{}
}

func NewMemStore() *MemStore {
	s := &MemStore{created: time.Now(), flushed: make(chan struct{})} // want `time\.Now in simulation-critical package chant/internal/recovery`
	go func() { close(s.flushed) }()                                  // want `raw go statement in simulation-critical package chant/internal/recovery`
	return s
}
