// Package machine stubs chant/internal/machine for schedctx fixtures.
package machine

// Host stubs the execution substrate interface.
type Host interface {
	Charge(d int64)
	Compute(units int64)
	Relax()
	Idle()
	Interrupt()
}
