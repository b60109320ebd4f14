package comm

import (
	"sync"

	"chant/internal/sim"
)

// mailbox is the matching engine of one endpoint: posted receives on one
// side, unexpected (early-arrival) messages on the other. Matching is FIFO
// on both sides: an arriving message matches the oldest compatible posted
// receive; a newly posted receive matches the oldest compatible unexpected
// message. Together with transports that preserve per-pair submission order,
// this gives the non-overtaking guarantee message-passing programs expect.
//
// The seed matched linearly — every arrival scanned every posted receive —
// which made the paper's hottest event O(outstanding receives). This engine
// buckets both sides by the exact match key (all five header fields a spec
// can pin) and keeps receives with any wildcard field on a side list, so
// the dominant fully-pinned case is O(1) and only genuine wildcards are
// scanned. Every entry also sits on a global list in arrival order, stamped
// with a monotonic sequence number: "oldest compatible" is then the
// minimum-sequence candidate across the exact bucket front and the wildcard
// scan, which is exactly the element the old linear sweep would have
// stopped at. RefMatcher (refmatch_test.go) preserves the linear algorithm as
// the reference model for the differential property test and benchmarks.
type mailbox struct {
	mu  sync.Mutex
	seq uint64 // arrival stamp shared by posted receives and unexpected messages

	// clock is the endpoint's host clock, read only to stamp a posted receive
	// as it completes: an operation that completes nothing reads no time.
	clock interface{ Now() sim.Time }

	// Posted receives: the global arrival-ordered list (failPeer walks it so
	// failures fire in deterministic post order), exact-spec buckets, and the
	// wildcard side list (specs with any Any field), each arrival-ordered.
	postAll   postList
	postExact map[matchKey]*postList
	postWild  postList
	nPosted   int

	// Unexpected messages: headers are always fully concrete, so every
	// message lives in an exact bucket plus the global arrival-ordered list
	// (which wildcard receives and findUnexpected scan).
	umAll   msgList
	umExact map[matchKey]*msgList
	nUnexp  int

	// unexpectedCap, when positive, bounds the unexpected queue: arrivals
	// that match no posted receive once the queue is full are dropped (a
	// countable fault event) instead of growing system buffering without
	// bound.
	unexpectedCap int

	// completed is the completion ready-list: when tracking is on (the
	// Scheduler-polls (WQ) policies enable it), every posted handle this
	// mailbox completes — matched by an arrival, failed by peer death, or
	// withdrawn by timeout — is appended here for the endpoint to drain, so
	// polling can inspect only completed handles instead of re-testing every
	// outstanding one. A receive satisfied at post time by an early arrival
	// was never outstanding and is not listed.
	tracking  bool
	completed []*RecvHandle

	// Node and bucket freelists (plain, under mu — deterministic, unlike
	// sync.Pool). Buckets are recycled because the exact-match maps delete
	// a bucket the moment it empties: without reuse, every post of a
	// fully-pinned receive allocates a fresh bucket on the hot path.
	freePost      *postNode
	freeMsg       *msgNode
	freePostLists []*postList
	freeMsgLists  []*msgList
}

// matchKey is the exact-match signature: the five header fields a MatchSpec
// can pin. A spec with no wildcard fields matches a header iff their keys
// are equal.
type matchKey struct {
	srcPE, srcProc, srcThread, ctx, tag int32
}

func keyOfHeader(h Header) matchKey {
	return matchKey{h.SrcPE, h.SrcProc, h.SrcThread, h.Ctx, h.Tag}
}

// keyOfSpec reports the spec's exact key, or ok=false if any field is a
// wildcard.
func keyOfSpec(s MatchSpec) (matchKey, bool) {
	if s.SrcPE == Any || s.SrcProc == Any || s.SrcThread == Any || s.Ctx == Any || s.Tag == Any {
		return matchKey{}, false
	}
	return matchKey{s.SrcPE, s.SrcProc, s.SrcThread, s.Ctx, s.Tag}, true
}

// Each node is intrusively linked into two lists at once: the global
// arrival-ordered list and its bucket (or the wildcard side list).
const (
	gLink = 0 // global arrival-ordered list
	lLink = 1 // exact-key bucket, or the wildcard side list
)

type postNode struct {
	h    *RecvHandle
	seq  uint64
	wild bool
	key  matchKey // valid when !wild
	prev [2]*postNode
	next [2]*postNode
}

type postList struct{ head, tail *postNode }

func (l *postList) pushBack(link int, n *postNode) {
	n.prev[link], n.next[link] = l.tail, nil
	if l.tail != nil {
		l.tail.next[link] = n
	} else {
		l.head = n
	}
	l.tail = n
}

func (l *postList) remove(link int, n *postNode) {
	if n.prev[link] != nil {
		n.prev[link].next[link] = n.next[link]
	} else {
		l.head = n.next[link]
	}
	if n.next[link] != nil {
		n.next[link].prev[link] = n.prev[link]
	} else {
		l.tail = n.prev[link]
	}
	n.prev[link], n.next[link] = nil, nil
}

type msgNode struct {
	msg  *Message
	seq  uint64
	key  matchKey
	prev [2]*msgNode
	next [2]*msgNode
}

type msgList struct{ head, tail *msgNode }

func (l *msgList) pushBack(link int, n *msgNode) {
	n.prev[link], n.next[link] = l.tail, nil
	if l.tail != nil {
		l.tail.next[link] = n
	} else {
		l.head = n
	}
	l.tail = n
}

func (l *msgList) remove(link int, n *msgNode) {
	if n.prev[link] != nil {
		n.prev[link].next[link] = n.next[link]
	} else {
		l.head = n.next[link]
	}
	if n.next[link] != nil {
		n.next[link].prev[link] = n.prev[link]
	} else {
		l.tail = n.prev[link]
	}
	n.prev[link], n.next[link] = nil, nil
}

// deliver matches msg against posted receives. If a receive matches, the
// payload is deposited directly into its user buffer (the no-extra-copy path
// the paper's design is built around) and the handle is returned. Otherwise
// the message joins the unexpected queue — unless the queue is at its cap,
// in which case the message is dropped and dropped reports true.
func (mb *mailbox) deliver(msg *Message) (h *RecvHandle, dropped bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if best := mb.matchPostedLocked(msg.Hdr); best != nil {
		h := best.h
		mb.unlinkPost(best)
		mb.freePostNode(best)
		mb.notify(h) // before complete: the notified flag must precede done
		h.complete(msg, mb.clock.Now())
		releaseMessage(msg)
		return h, false
	}
	if mb.unexpectedCap > 0 && mb.nUnexp >= mb.unexpectedCap {
		releaseMessage(msg)
		return nil, true
	}
	key := keyOfHeader(msg.Hdr)
	mb.seq++
	n := mb.newMsgNode(msg, key, mb.seq)
	mb.umAll.pushBack(gLink, n)
	mb.msgBucket(key).pushBack(lLink, n)
	mb.nUnexp++
	return nil, false
}

// matchPostedLocked reports the oldest posted receive matching hdr, or nil.
// Caller holds mb.mu and, on a hit, owns unlinking the node.
func (mb *mailbox) matchPostedLocked(hdr Header) *postNode {
	var best *postNode
	if bl := mb.postExact[keyOfHeader(hdr)]; bl != nil {
		best = bl.head
	}
	for n := mb.postWild.head; n != nil; n = n.next[lLink] {
		if best != nil && n.seq > best.seq {
			// The wildcard list is arrival-ordered: nothing past n can be
			// older than the exact-bucket candidate.
			break
		}
		if n.h.spec.Matches(hdr) {
			return n
		}
	}
	return best
}

// tryDepositDirect is the zero-copy matched-receive fast path: called on the
// sending goroutine with the sender's buffer, it completes a posted receive
// by copying data straight into the waiting thread's buffer — no pooled
// Message, no intermediate copy. It declines (reporting false) whenever the
// slow path must run: the lock is contended or no posted receive matches.
//
// Ordering: deliver deposits under this same lock before the transport's
// Deliver returns, so a sender's earlier message is already matched or
// queued by the time its next one gets here, and the direct deposit cannot
// overtake it. Cross-sender arrival order carries no guarantee in real
// mode.
func (mb *mailbox) tryDepositDirect(hdr Header, data []byte) bool {
	if !mb.mu.TryLock() {
		return false
	}
	defer mb.mu.Unlock()
	best := mb.matchPostedLocked(hdr)
	if best == nil {
		return false
	}
	h := best.h
	mb.unlinkPost(best)
	mb.freePostNode(best)
	mb.notify(h) // before complete: the notified flag must precede done
	h.completeDirect(hdr, data, mb.clock.Now())
	return true
}

// post registers a receive. If an unexpected message already matches, it is
// consumed and deposited immediately (this is the system-buffer-copy path)
// and post reports true; such a handle is not stamped (its completedAt is
// zero), since no wait began on it.
func (mb *mailbox) post(h *RecvHandle) (immediate bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	key, exact := keyOfSpec(h.spec)
	var n *msgNode
	if exact {
		if ml := mb.umExact[key]; ml != nil {
			n = ml.head
		}
	} else {
		for x := mb.umAll.head; x != nil; x = x.next[gLink] {
			if h.spec.Matches(x.msg.Hdr) {
				n = x
				break
			}
		}
	}
	if n != nil {
		msg := n.msg
		mb.unlinkMsg(n)
		mb.freeMsgNode(n)
		// No ready-list notification: the poster learns of this completion
		// from Irecv itself, so no polling list can ever hold the handle.
		h.complete(msg, 0)
		releaseMessage(msg)
		return true
	}
	mb.seq++
	pn := mb.newPostNode(h, key, !exact, mb.seq)
	h.entry = pn
	mb.postAll.pushBack(gLink, pn)
	if exact {
		mb.postBucket(key).pushBack(lLink, pn)
	} else {
		mb.postWild.pushBack(lLink, pn)
	}
	mb.nPosted++
	return false
}

// remove cancels a posted receive, reporting whether it was still pending.
// A handle that already completed (or was never posted) is left untouched.
func (mb *mailbox) remove(h *RecvHandle) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	n := h.entry
	if n == nil {
		return false
	}
	mb.unlinkPost(n)
	mb.freePostNode(n)
	h.canceled = true
	return true
}

// removeFailed withdraws a posted receive and fails it with the given error
// and status, atomically with respect to delivery: exactly one of delivery
// and failure wins. It reports false if the handle was no longer posted
// (it completed, was canceled, or already failed).
func (mb *mailbox) removeFailed(h *RecvHandle, err error, status Status) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	n := h.entry
	if n == nil {
		return false
	}
	mb.unlinkPost(n)
	mb.freePostNode(n)
	mb.notify(h)
	h.fail(err, status, mb.clock.Now())
	return true
}

// failPeer fails every posted receive that can only be satisfied by the
// given (now dead) peer — those whose spec pins both source fields to it —
// and reports how many it failed. Wildcard receives stay posted: some other
// peer may still satisfy them. The walk follows the global list, so
// failures fire in deterministic post order.
func (mb *mailbox) failPeer(peer Addr) int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	failed := 0
	for n := mb.postAll.head; n != nil; {
		next := n.next[gLink]
		if n.h.spec.SrcPE == peer.PE && n.h.spec.SrcProc == peer.Proc {
			h := n.h
			mb.unlinkPost(n)
			mb.freePostNode(n)
			mb.notify(h)
			h.fail(ErrPeerDead, StatusPeerDead, mb.clock.Now())
			failed++
		}
		n = next
	}
	return failed
}

// findUnexpected reports the header of the oldest unexpected message
// matching spec, without consuming it (MPI_Probe-style).
func (mb *mailbox) findUnexpected(spec MatchSpec) (Header, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if key, exact := keyOfSpec(spec); exact {
		if ml := mb.umExact[key]; ml != nil {
			return ml.head.msg.Hdr, true
		}
		return Header{}, false
	}
	for n := mb.umAll.head; n != nil; n = n.next[gLink] {
		if spec.Matches(n.msg.Hdr) {
			return n.msg.Hdr, true
		}
	}
	return Header{}, false
}

// snapshotUnexpected visits every unexpected message in arrival order (the
// global list is the queue's deterministic order), consuming nothing. The
// visitor runs under the mailbox lock and must not re-enter it.
func (mb *mailbox) snapshotUnexpected(visit func(hdr Header, data []byte, sentAt sim.Time)) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for n := mb.umAll.head; n != nil; n = n.next[gLink] {
		visit(n.msg.Hdr, n.msg.Data, n.msg.SentAt)
	}
}

// depths reports queue lengths, for tests and diagnostics.
func (mb *mailbox) depths() (posted, unexpected int) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.nPosted, mb.nUnexp
}

// track enables the completion ready-list.
func (mb *mailbox) track() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.tracking = true
}

// drainCompleted clears the completion ready-list, releasing each handle's
// notified latch: handles still owned by a caller are appended to buf,
// handles released while notified are reset and appended to free.
func (mb *mailbox) drainCompleted(buf, free []*RecvHandle) ([]*RecvHandle, []*RecvHandle) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, h := range mb.completed {
		if h.released {
			h.Reset()
			free = append(free, h)
		} else {
			h.notified = false
			buf = append(buf, h)
		}
		mb.completed[i] = nil
	}
	mb.completed = mb.completed[:0]
	return buf, free
}

// notify records a completion on the ready-list, latching the handle
// against pool reuse until the notification is drained. Caller holds mb.mu;
// must run before the handle's done flag is set.
func (mb *mailbox) notify(h *RecvHandle) {
	if mb.tracking {
		h.notified = true
		mb.completed = append(mb.completed, h)
	}
}

// unlinkPost removes a posted node from the global list and its bucket or
// the wildcard list, clearing the handle back-pointer. Caller holds mb.mu.
func (mb *mailbox) unlinkPost(n *postNode) {
	mb.postAll.remove(gLink, n)
	if n.wild {
		mb.postWild.remove(lLink, n)
	} else {
		bl := mb.postExact[n.key]
		bl.remove(lLink, n)
		if bl.head == nil {
			delete(mb.postExact, n.key)
			mb.freePostLists = append(mb.freePostLists, bl)
		}
	}
	n.h.entry = nil
	mb.nPosted--
}

// unlinkMsg removes an unexpected-message node from the global list and its
// bucket. Caller holds mb.mu.
func (mb *mailbox) unlinkMsg(n *msgNode) {
	mb.umAll.remove(gLink, n)
	ml := mb.umExact[n.key]
	ml.remove(lLink, n)
	if ml.head == nil {
		delete(mb.umExact, n.key)
		mb.freeMsgLists = append(mb.freeMsgLists, ml)
	}
	mb.nUnexp--
}

func (mb *mailbox) postBucket(key matchKey) *postList {
	if mb.postExact == nil {
		mb.postExact = make(map[matchKey]*postList)
	}
	bl := mb.postExact[key]
	if bl == nil {
		if n := len(mb.freePostLists); n > 0 {
			bl = mb.freePostLists[n-1]
			mb.freePostLists[n-1] = nil
			mb.freePostLists = mb.freePostLists[:n-1]
		} else {
			bl = &postList{}
		}
		mb.postExact[key] = bl
	}
	return bl
}

func (mb *mailbox) msgBucket(key matchKey) *msgList {
	if mb.umExact == nil {
		mb.umExact = make(map[matchKey]*msgList)
	}
	ml := mb.umExact[key]
	if ml == nil {
		if n := len(mb.freeMsgLists); n > 0 {
			ml = mb.freeMsgLists[n-1]
			mb.freeMsgLists[n-1] = nil
			mb.freeMsgLists = mb.freeMsgLists[:n-1]
		} else {
			ml = &msgList{}
		}
		mb.umExact[key] = ml
	}
	return ml
}

func (mb *mailbox) newPostNode(h *RecvHandle, key matchKey, wild bool, seq uint64) *postNode {
	n := mb.freePost
	if n != nil {
		mb.freePost = n.next[gLink]
		n.next[gLink] = nil
	} else {
		n = &postNode{}
	}
	n.h, n.key, n.wild, n.seq = h, key, wild, seq
	return n
}

func (mb *mailbox) freePostNode(n *postNode) {
	*n = postNode{}
	n.next[gLink] = mb.freePost
	mb.freePost = n
}

func (mb *mailbox) newMsgNode(msg *Message, key matchKey, seq uint64) *msgNode {
	n := mb.freeMsg
	if n != nil {
		mb.freeMsg = n.next[gLink]
		n.next[gLink] = nil
	} else {
		n = &msgNode{}
	}
	n.msg, n.key, n.seq = msg, key, seq
	return n
}

func (mb *mailbox) freeMsgNode(n *msgNode) {
	*n = msgNode{}
	n.next[gLink] = mb.freeMsg
	mb.freeMsg = n
}
