package comm

import "sync"

// Message recycling for every transport. Each send and each tcpnet arrival
// used to allocate a fresh Message plus payload buffer; at ping-pong rates
// that garbage dominates the profile. Messages drawn from the pool carry
// pooled=true and are returned at their terminal-copy point — the mailbox
// releases them after depositing into the user buffer (match, immediate
// post, or drop-at-cap), and tcpnet releases its send-side message after
// serializing the frame.
//
// sync.Pool reuse order is scheduling-dependent, and simulation draws from
// the pool too. That is safe because pool identity never reaches an event:
// GetPooledMessage sizes Data and the sender overwrites all of it, Hdr and
// SentAt, before the message is submitted, so a recycled message is
// indistinguishable from a fresh one. What the pool does demand is that no
// one keeps a message's buffer past its release: simnet's fault-injected
// duplicate therefore copies the payload instead of sharing it
// (TestSimnetDuplicateSurvivesRelease). The determinism witnesses
// (TestChaosSoak, the polling invariance goldens) hold this line.

//chant:allow-nondet pool identity never reaches an event: every field is overwritten before use
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// getMessage draws a recycled message, marked for release at its
// terminal-copy point.
func getMessage() *Message {
	//chant:allow-nondet reuse order is invisible: the caller overwrites every field
	m := msgPool.Get().(*Message)
	m.pooled = true
	return m
}

// releaseMessage returns a pooled message for reuse; a no-op for messages
// allocated outside the pool (checkpoint restores, simnet duplicates).
func releaseMessage(m *Message) {
	if !m.pooled {
		return
	}
	m.pooled = false
	m.Hdr = Header{}
	m.Data = m.Data[:0]
	m.SentAt = 0
	//chant:allow-nondet the released buffer has no other holder, so its next owner sees no trace of it
	msgPool.Put(m)
}

// sizeData resizes m.Data to n bytes, reusing capacity when possible.
func (m *Message) sizeData(n int) {
	if cap(m.Data) >= n {
		m.Data = m.Data[:n]
	} else {
		m.Data = make([]byte, n)
	}
}

// GetPooledMessage returns a recycled message with Data sized to n bytes,
// for a send or a transport's receive path; the mailbox releases it after
// the deposit copy.
func GetPooledMessage(n int) *Message {
	m := getMessage()
	m.sizeData(n)
	return m
}

// ReleaseMessage returns a pooled message for reuse, for transports that
// finish with a message outside the mailbox (tcpnet's sender releases the
// submitted message once the frame is serialized). No-op for unpooled
// messages.
func ReleaseMessage(m *Message) { releaseMessage(m) }
