package comm

import "chant/internal/sim"

// Matcher exposes the production bucketed mailbox standalone (no endpoint,
// no cost accounting) for tests and benchmarks. The differential property
// test drives it and the seed's linear RefMatcher (refmatch_test.go) with the
// same operation stream and asserts identical match results;
// BenchmarkHotPathMatch* measures one against the other.

// NewRecvHandle creates a bare receive handle bound to no endpoint, for
// driving a Matcher directly.
func NewRecvHandle(spec MatchSpec, buf []byte) *RecvHandle {
	return &RecvHandle{spec: spec, buf: buf}
}

// RearmHandle resets a terminal bare handle and re-initializes it for
// another post, so matcher benchmarks can measure match cost without a
// handle allocation per operation. Only for handles made by NewRecvHandle;
// endpoint-owned handles are recycled through ReleaseHandle.
func RearmHandle(h *RecvHandle, spec MatchSpec, buf []byte) {
	h.Reset()
	h.spec, h.buf = spec, buf
}

// Matcher is the production bucketed matching engine, standalone. Every
// completing call stamps the handle with the call's at, including a receive
// born complete at Post, as an endpoint does when a tracer is attached.
type Matcher struct {
	mb mailbox
	at callTime
}

// callTime is the mailbox clock of a Matcher: the at of the current call.
type callTime sim.Time

func (c *callTime) Now() sim.Time { return sim.Time(*c) }

// NewMatcher creates an empty bucketed matcher.
func NewMatcher() *Matcher {
	m := &Matcher{}
	m.mb.clock = &m.at
	return m
}

// SetUnexpectedCap bounds the unexpected queue (zero = unbounded).
func (m *Matcher) SetUnexpectedCap(cap int) { m.mb.unexpectedCap = cap }

// Deliver matches msg against posted receives; see mailbox.arrive.
func (m *Matcher) Deliver(msg *Message, at sim.Time) (*RecvHandle, bool) {
	m.at = callTime(at)
	return m.mb.arrive(msg.Hdr, msg.Data, msg, nil)
}

// Post registers a receive; see mailbox.post.
func (m *Matcher) Post(h *RecvHandle, at sim.Time) bool {
	if !m.mb.post(h) {
		return false
	}
	h.completedAt = at
	return true
}

// Remove cancels a posted receive; see mailbox.remove.
func (m *Matcher) Remove(h *RecvHandle) bool { return m.mb.remove(h) }

// RemoveFailed withdraws and fails a posted receive; see
// mailbox.removeFailed.
func (m *Matcher) RemoveFailed(h *RecvHandle, err error, status Status, at sim.Time) bool {
	m.at = callTime(at)
	return m.mb.removeFailed(h, err, status)
}

// FailPeer fails every receive pinned to peer; see mailbox.failPeer.
func (m *Matcher) FailPeer(peer Addr, at sim.Time) int {
	m.at = callTime(at)
	return m.mb.failPeer(peer)
}

// FindUnexpected probes the unexpected queue; see mailbox.findUnexpected.
func (m *Matcher) FindUnexpected(spec MatchSpec) (Header, bool) {
	return m.mb.findUnexpected(spec)
}

// Depths reports queue lengths.
func (m *Matcher) Depths() (posted, unexpected int) { return m.mb.depths() }
