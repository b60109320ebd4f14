// Package ult stubs chant/internal/ult's thread mutex for detlint's
// lock-balance fixture.
package ult

// Mutex stubs the cooperative thread mutex.
type Mutex struct{}

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}
