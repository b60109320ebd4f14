package comm

import "chant/internal/sim"

// RefMatcher is the seed's linear matching engine: every operation scans a
// flat slice. Semantics are identical to Matcher by construction — the
// property test in mailbox_test.go enforces it.
type RefMatcher struct {
	posted        []*RecvHandle
	unexpected    []*Message
	UnexpectedCap int
}

// Deliver matches msg against posted receives with a linear scan.
func (mb *RefMatcher) Deliver(msg *Message, at sim.Time) (*RecvHandle, bool) {
	for i, h := range mb.posted {
		if h.spec.Matches(msg.Hdr) {
			copy(mb.posted[i:], mb.posted[i+1:])
			mb.posted[len(mb.posted)-1] = nil
			mb.posted = mb.posted[:len(mb.posted)-1]
			h.complete(msg, at)
			return h, false
		}
	}
	if mb.UnexpectedCap > 0 && len(mb.unexpected) >= mb.UnexpectedCap {
		return nil, true
	}
	mb.unexpected = append(mb.unexpected, msg)
	return nil, false
}

// Post registers a receive, consuming the oldest matching unexpected
// message if one exists.
func (mb *RefMatcher) Post(h *RecvHandle, at sim.Time) bool {
	for i, msg := range mb.unexpected {
		if h.spec.Matches(msg.Hdr) {
			copy(mb.unexpected[i:], mb.unexpected[i+1:])
			mb.unexpected[len(mb.unexpected)-1] = nil
			mb.unexpected = mb.unexpected[:len(mb.unexpected)-1]
			h.complete(msg, at)
			return true
		}
	}
	mb.posted = append(mb.posted, h)
	return false
}

// Remove cancels a posted receive.
func (mb *RefMatcher) Remove(h *RecvHandle) bool {
	for i, p := range mb.posted {
		if p == h {
			copy(mb.posted[i:], mb.posted[i+1:])
			mb.posted[len(mb.posted)-1] = nil
			mb.posted = mb.posted[:len(mb.posted)-1]
			h.canceled = true
			return true
		}
	}
	return false
}

// RemoveFailed withdraws and fails a posted receive.
func (mb *RefMatcher) RemoveFailed(h *RecvHandle, err error, status Status, at sim.Time) bool {
	for i, p := range mb.posted {
		if p == h {
			copy(mb.posted[i:], mb.posted[i+1:])
			mb.posted[len(mb.posted)-1] = nil
			mb.posted = mb.posted[:len(mb.posted)-1]
			h.fail(err, status, at)
			return true
		}
	}
	return false
}

// FailPeer fails every posted receive pinned to peer, in post order.
func (mb *RefMatcher) FailPeer(peer Addr, at sim.Time) int {
	failed := 0
	kept := mb.posted[:0]
	for _, h := range mb.posted {
		if h.spec.SrcPE == peer.PE && h.spec.SrcProc == peer.Proc {
			h.fail(ErrPeerDead, StatusPeerDead, at)
			failed++
		} else {
			kept = append(kept, h)
		}
	}
	for i := len(kept); i < len(mb.posted); i++ {
		mb.posted[i] = nil
	}
	mb.posted = kept
	return failed
}

// FindUnexpected probes for the oldest matching unexpected message.
func (mb *RefMatcher) FindUnexpected(spec MatchSpec) (Header, bool) {
	for _, msg := range mb.unexpected {
		if spec.Matches(msg.Hdr) {
			return msg.Hdr, true
		}
	}
	return Header{}, false
}

// Depths reports queue lengths.
func (mb *RefMatcher) Depths() (posted, unexpected int) {
	return len(mb.posted), len(mb.unexpected)
}
