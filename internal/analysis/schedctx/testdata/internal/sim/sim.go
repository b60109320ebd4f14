// Package sim stubs chant/internal/sim for schedctx fixtures.
package sim

// Time stubs virtual time.
type Time int64

// Duration stubs virtual durations.
type Duration int64

// Proc stubs a simulation process.
type Proc struct{}

func (p *Proc) Advance(d Duration) {}
func (p *Proc) WaitSignal()        {}
func (p *Proc) Signal()            {}

// Kernel stubs the discrete-event kernel.
type Kernel struct{}

func (k *Kernel) At(t Time, fn func())                              {}
func (k *Kernel) After(d Duration, fn func())                       {}
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc           { return nil }
func (k *Kernel) SpawnAt(t Time, name string, fn func(*Proc)) *Proc { return nil }
