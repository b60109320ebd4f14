// Package leakfixture seeds lock-leak and stale-slot shapes for detlint's
// leak checks inside a runtime package path (internal/core/...), next to
// the balanced and sanctioned shapes that must stay silent.
package leakfixture

import (
	"sync"

	"chant/internal/ult"
)

// leakSync exercises the sync.Mutex balance check.
func leakSync(mu *sync.Mutex, cond bool) {
	mu.Lock() // want `mu\.Lock has no matching unlock in leakSync`
	if cond {
		return
	}
}

// leakUlt exercises the thread-mutex balance check.
func leakUlt(m *ult.Mutex) {
	m.Lock() // want `m\.Lock has no matching unlock in leakUlt`
}

type peer struct{ id int }

// compactDeletes exercises the stale-tail check: append-based removal on a
// reference-element slice strands the removed pointer in the old last slot.
func compactDeletes(ptrs []*peer, ints []int, i int) ([]*peer, []int) {
	ptrs = append(ptrs[:i], ptrs[i+1:]...) // want `append-based compact delete on ptrs strands a live reference`
	ints = append(ints[:i], ints[i+1:]...) // ok: value elements hold nothing
	return ptrs, ints
}

type withRef struct{ name string }

func compactDeleteStruct(xs []withRef, i int) []withRef {
	xs = append(xs[:i], xs[i+1:]...) // want `append-based compact delete on xs strands a live reference`
	return xs
}

// compactDeleteElsewhere stores the shortened slice through a pointer: the
// appended slice's vacated slot is stranded all the same.
func compactDeleteElsewhere(list *[]*peer, i int) {
	s := *list
	*list = append(s[:i], s[i+1:]...) // want `append-based compact delete on s strands a live reference`
}

// compactDeleteFixed is the sanctioned removal shape: shift, zero the
// vacated slot, truncate.
func compactDeleteFixed(ptrs []*peer, i int) []*peer {
	copy(ptrs[i:], ptrs[i+1:])
	ptrs[len(ptrs)-1] = nil
	return ptrs[:len(ptrs)-1]
}

// balanced locking shapes must stay silent.
type guarded struct {
	mu    sync.Mutex
	count int
}

func (g *guarded) deferred() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.count++
}

func (g *guarded) branched(early bool) int {
	g.mu.Lock()
	if early {
		g.mu.Unlock()
		return 0
	}
	n := g.count
	g.mu.Unlock()
	return n
}
