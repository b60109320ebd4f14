package comm

import (
	"sync"

	"chant/internal/machine"
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
//
// Every arrival, whatever its host or transport, runs one body, arrive.
type mailbox struct {
	mu  sync.Mutex
	seq uint64 // arrival stamp shared by posted receives and unexpected messages

	// clock is the endpoint's host clock, read only to stamp a posted receive
	// as it completes: an operation that completes nothing reads no time.
	clock interface{ Now() sim.Time }

	// Posted receives: the global arrival-ordered list (failPeer walks it so
	// failures fire in deterministic post order), exact-spec buckets, and the
	// wildcard side list (specs with any Any field), each arrival-ordered.
	postAll   list[*RecvHandle]
	postExact buckets[*RecvHandle]
	postWild  list[*RecvHandle]
	nPosted   int

	// Unexpected messages: headers are always fully concrete, so every
	// message lives in an exact bucket plus the global arrival-ordered list
	// (which wildcard receives and findUnexpected scan).
	umAll   list[*Message]
	umExact buckets[*Message]
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

	// Node freelists (plain, under mu — deterministic, unlike sync.Pool).
	freePost *postNode
	freeMsg  *msgNode
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

// node is one mailbox entry: a posted receive (postNode) or an unexpected
// message (msgNode).
type node[T any] struct {
	val T
	seq uint64
	// bucket is the exact-key bucket the node is linked into, so unlinking
	// needs no map lookup; nil for a wildcard receive on postWild.
	bucket *list[T]
	prev   [2]*node[T]
	next   [2]*node[T]
}

type (
	postNode = node[*RecvHandle]
	msgNode  = node[*Message]
)

type list[T any] struct{ head, tail *node[T] }

func (l *list[T]) pushBack(link int, n *node[T]) {
	n.prev[link], n.next[link] = l.tail, nil
	if l.tail != nil {
		l.tail.next[link] = n
	} else {
		l.head = n
	}
	l.tail = n
}

func (l *list[T]) remove(link int, n *node[T]) {
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

// buckets is one side's exact-key index. A bucket that empties stays in the
// map, so a key that recurs — every message of a steady exchange — costs one
// lookup and no insert or delete. empty counts the retained empty buckets;
// once they outnumber max(minSweep, live buckets), one sweep deletes them
// all. A sweep visits at most twice the empties it removes, so its cost is
// O(1) amortized per emptying, and under a stream of distinct keys the map
// stays within live + max(minSweep, live) entries.
type buckets[T any] struct {
	m     map[matchKey]*list[T]
	empty int
}

// minSweep is the number of empty buckets a side may retain regardless of
// how few are live.
const minSweep = 64

// front reports the oldest node under key, or nil. With no live bucket it
// skips the lookup: an arrival at a mailbox whose only posted receives are
// wildcards pays no map access on the posted side.
func (b *buckets[T]) front(key matchKey) *node[T] {
	if len(b.m) == b.empty {
		return nil
	}
	if l := b.m[key]; l != nil {
		return l.head
	}
	return nil
}

// push appends n to key's bucket, creating the bucket only if the key has
// none, retained or live.
func (b *buckets[T]) push(key matchKey, n *node[T]) {
	l := b.m[key]
	switch {
	case l == nil:
		l = &list[T]{}
		if b.m == nil {
			b.m = make(map[matchKey]*list[T])
		}
		b.m[key] = l
	case l.head == nil:
		b.empty--
	}
	l.pushBack(lLink, n)
	n.bucket = l
}

// remove unlinks n from its bucket, sweeping the empty buckets when they
// outnumber the bound.
func (b *buckets[T]) remove(n *node[T]) {
	l := n.bucket
	l.remove(lLink, n)
	if l.head != nil {
		return
	}
	b.empty++
	if b.empty <= max(minSweep, len(b.m)-b.empty) {
		return
	}
	for k, l := range b.m {
		if l.head == nil {
			delete(b.m, k)
		}
	}
	b.empty = 0
}

// arrive is the mailbox's one arrival body, for every host and transport.
// Under one lock it does exactly one of three things:
//
//   - It deposits the payload into the oldest posted receive matching hdr
//     and returns its handle. The payload is copied from data, which is
//     msg.Data for an owned message and the sender's own buffer when msg is
//     nil — the zero-copy matched receive: no pooled Message, no
//     intermediate copy.
//   - At the SetUnexpectedCap bound it drops the arrival and reports
//     dropped.
//   - Otherwise it queues the arrival as unexpected: msg itself, or, for a
//     borrowed buffer, a pooled copy stamped with from's clock (SentAt stays
//     zero when from is nil).
//
// An owned msg is released once its payload is copied or dropped. A
// borrowed data is only read during the call.
func (mb *mailbox) arrive(hdr Header, data []byte, msg *Message, from machine.Host) (h *RecvHandle, dropped bool) {
	key := keyOfHeader(hdr)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if best := mb.matchPostedLocked(hdr, key); best != nil {
		h := best.val
		mb.unlinkPost(best)
		mb.freePostNode(best)
		mb.notify(h) // before complete: the notified flag must precede done
		h.completeDirect(hdr, data, mb.clock.Now())
		if msg != nil {
			releaseMessage(msg)
		}
		return h, false
	}
	if mb.unexpectedCap > 0 && mb.nUnexp >= mb.unexpectedCap {
		if msg != nil {
			releaseMessage(msg)
		}
		return nil, true
	}
	if msg == nil {
		msg = GetPooledMessage(len(data))
		copy(msg.Data, data)
		msg.Hdr = hdr
		if from != nil {
			msg.SentAt = from.Now()
		}
	}
	mb.seq++
	n := mb.newMsgNode(mb.seq)
	n.val = msg // the queue takes ownership; the post that matches it releases it
	mb.umAll.pushBack(gLink, n)
	mb.umExact.push(key, n)
	mb.nUnexp++
	return nil, false
}

// matchPostedLocked reports the oldest posted receive matching hdr (whose
// exact key is key), or nil. Caller holds mb.mu and, on a hit, owns
// unlinking the node.
func (mb *mailbox) matchPostedLocked(hdr Header, key matchKey) *postNode {
	if mb.nPosted == 0 {
		return nil
	}
	best := mb.postExact.front(key)
	for n := mb.postWild.head; n != nil; n = n.next[lLink] {
		if best != nil && n.seq > best.seq {
			// The wildcard list is arrival-ordered: nothing past n can be
			// older than the exact-bucket candidate.
			break
		}
		if n.val.spec.Matches(hdr) {
			return n
		}
	}
	return best
}

// oldestUnexpectedLocked reports the oldest unexpected message matching
// spec (whose exact key is key when exact), or nil. Caller holds mb.mu.
func (mb *mailbox) oldestUnexpectedLocked(spec MatchSpec, key matchKey, exact bool) *msgNode {
	if mb.nUnexp == 0 {
		return nil
	}
	if exact {
		return mb.umExact.front(key)
	}
	for n := mb.umAll.head; n != nil; n = n.next[gLink] {
		if spec.Matches(n.val.Hdr) {
			return n
		}
	}
	return nil
}

// post registers a receive. If an unexpected message already matches, it is
// consumed and deposited immediately (this is the system-buffer-copy path)
// and post reports true; such a handle is not stamped (its completedAt is
// zero), since no wait began on it.
func (mb *mailbox) post(h *RecvHandle) (immediate bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	key, exact := keyOfSpec(h.spec)
	if n := mb.oldestUnexpectedLocked(h.spec, key, exact); n != nil {
		msg := n.val
		mb.unlinkMsg(n)
		mb.freeMsgNode(n)
		// No ready-list notification: the poster learns of this completion
		// from Irecv itself, so no polling list can ever hold the handle.
		h.complete(msg, 0)
		releaseMessage(msg)
		return true
	}
	mb.seq++
	pn := mb.newPostNode(h, mb.seq)
	h.entry = pn
	mb.postAll.pushBack(gLink, pn)
	if exact {
		mb.postExact.push(key, pn)
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
		if h := n.val; h.spec.SrcPE == peer.PE && h.spec.SrcProc == peer.Proc {
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
	key, exact := keyOfSpec(spec)
	if n := mb.oldestUnexpectedLocked(spec, key, exact); n != nil {
		return n.val.Hdr, true
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
		visit(n.val.Hdr, n.val.Data, n.val.SentAt)
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
	if n.bucket == nil {
		mb.postWild.remove(lLink, n)
	} else {
		mb.postExact.remove(n)
	}
	n.val.entry = nil
	mb.nPosted--
}

// unlinkMsg removes an unexpected-message node from the global list and its
// bucket. Caller holds mb.mu.
func (mb *mailbox) unlinkMsg(n *msgNode) {
	mb.umAll.remove(gLink, n)
	mb.umExact.remove(n)
	mb.nUnexp--
}

func (mb *mailbox) newPostNode(h *RecvHandle, seq uint64) *postNode {
	n := mb.freePost
	if n != nil {
		mb.freePost = n.next[gLink]
		n.next[gLink] = nil
	} else {
		n = &postNode{}
	}
	n.val, n.seq = h, seq
	return n
}

func (mb *mailbox) freePostNode(n *postNode) {
	*n = postNode{}
	n.next[gLink] = mb.freePost
	mb.freePost = n
}

func (mb *mailbox) newMsgNode(seq uint64) *msgNode {
	n := mb.freeMsg
	if n != nil {
		mb.freeMsg = n.next[gLink]
		n.next[gLink] = nil
	} else {
		n = &msgNode{}
	}
	n.seq = seq
	return n
}

func (mb *mailbox) freeMsgNode(n *msgNode) {
	*n = msgNode{}
	n.next[gLink] = mb.freeMsg
	mb.freeMsg = n
}
