// Package check is Chant's runtime invariant checker: the dynamic
// counterpart to the static chantvet analyzers. Built normally it compiles
// to nothing — Enabled is a false constant and every hook is an inlinable
// empty method — but built with -tags chantdebug it arms:
//
//   - an Owner token per cooperative scheduling domain (one per ult.Sched),
//     transferred at every coroutine switch, so any API call arriving from
//     a goroutine outside the domain panics at the call instead of
//     corrupting scheduler state later;
//   - accounting audits in ult.Sched's dispatch loop, cross-checking the
//     cached ready/blocked/live counts against the ground truth of thread
//     states every scheduling iteration;
//   - a monotonic-time audit on the simulation kernel's event heap;
//   - a count of coroutine resumptions per scheduler and per kernel, so
//     tests can pin how many a coroutine switch costs, not only how long.
//
// Violations panic through Failf with a diagnostic dump, because an
// invariant breach means later behaviour is undefined — there is nothing
// sensible to return.
package check

import "fmt"

// Failf reports an invariant violation: it panics with the formatted
// message. Callers include whatever state dump makes the violation
// diagnosable; Go's panic output supplies the goroutine stacks.
func Failf(format string, args ...any) {
	panic("chant invariant violated: " + fmt.Sprintf(format, args...))
}
