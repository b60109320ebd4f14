package comm

import (
	"sync/atomic"

	"chant/internal/sim"
)

// RecvHandle is the completion handle returned by a nonblocking receive,
// analogous to the handle of NX irecv / MPI_IRECV. The handle becomes done
// when a matching message has been deposited into the user buffer; Test,
// TestAny, and the blocking wait paths observe completion through it.
type RecvHandle struct {
	spec MatchSpec
	buf  []byte

	done atomic.Bool

	// Completion results; written before done is set, valid after done
	// observes true.
	n           int
	hdr         Header
	err         error
	status      Status
	completedAt sim.Time

	// observed records that a completing call already charged the receive
	// overhead and counted the receive, so completion is accounted once no
	// matter how many tests follow.
	observed bool

	// canceled marks a handle removed from its mailbox before completion.
	canceled bool

	// acked latches the synchronous-send acknowledgement so it is sent at
	// most once no matter how many calls observe completion.
	acked bool

	// entry is the handle's node in its mailbox's posted-receive index while
	// posted; nil otherwise. Guarded by the mailbox lock.
	entry *postNode
}

// Reset clears the handle for reuse via the endpoint's handle pool. The
// handle must be terminal: completed or canceled, and no longer posted.
func (h *RecvHandle) Reset() {
	h.spec = MatchSpec{}
	h.buf = nil
	h.done.Store(false)
	h.n = 0
	h.hdr = Header{}
	h.err = nil
	h.status = StatusPending
	h.completedAt = 0
	h.observed = false
	h.canceled = false
	h.acked = false
	h.entry = nil
}

// NeedsSyncAck reports (and latches) whether this completed receive
// matched a synchronous send that has not yet been acknowledged. The first
// caller gets true and must send the ack; later callers get false.
func (h *RecvHandle) NeedsSyncAck() bool {
	if !h.done.Load() || h.hdr.Flags&FlagSync == 0 || h.acked {
		return false
	}
	h.acked = true
	return true
}

// Spec reports the match specification the receive was posted with.
func (h *RecvHandle) Spec() MatchSpec { return h.spec }

// Done reports whether the receive has completed. It performs no cost
// accounting; use Endpoint.Test for a paper-faithful msgtest.
func (h *RecvHandle) Done() bool { return h.done.Load() }

// Len reports the number of payload bytes deposited. Valid once Done.
func (h *RecvHandle) Len() int { return h.n }

// Header reports the header of the matched message. Valid once Done.
func (h *RecvHandle) Header() Header { return h.hdr }

// Err reports a delivery error such as ErrTruncated, ErrTimeout, or
// ErrPeerDead. Valid once Done.
func (h *RecvHandle) Err() error { return h.err }

// Status reports how the receive completed. StatusPending until Done.
func (h *RecvHandle) Status() Status {
	if !h.done.Load() {
		return StatusPending
	}
	return h.status
}

// CompletedAt reports the host time at which the receive completed: the
// message was deposited, or the receive failed or timed out. Valid once Done
// for a receive that completed while posted, or for any receive when a
// tracer is attached; a receive born complete at Irecv (it matched an early
// arrival) is otherwise not stamped and reports zero, since reading the clock
// for it would feed nothing.
func (h *RecvHandle) CompletedAt() sim.Time { return h.completedAt }

// Canceled reports whether the receive was canceled before completing.
func (h *RecvHandle) Canceled() bool { return h.canceled }

// complete deposits msg into the handle's buffer and marks it done.
// The caller must hold the owning mailbox's lock.
func (h *RecvHandle) complete(msg *Message, at sim.Time) {
	h.completeDirect(msg.Hdr, msg.Data, at)
}

// completeDirect deposits a payload given as a raw header+bytes pair — an
// owned message's, or, on the zero-copy path, the sender's own buffer, for
// which no Message is ever materialized. data is only read during the call.
// The caller must hold the owning mailbox's lock.
func (h *RecvHandle) completeDirect(hdr Header, data []byte, at sim.Time) {
	h.n = copy(h.buf, data)
	if len(data) > len(h.buf) {
		h.err = ErrTruncated
	}
	h.hdr = hdr
	h.status = StatusDelivered
	h.completedAt = at
	h.done.Store(true)
}

// fail completes the handle unsuccessfully: no payload, the given error and
// status. The handle is pre-observed so failed receives never charge receive
// overhead or count as completed receives. The caller must hold the owning
// mailbox's lock (or own the handle exclusively, as Irecv does for handles
// born failed).
func (h *RecvHandle) fail(err error, status Status, at sim.Time) {
	h.err = err
	h.status = status
	h.completedAt = at
	h.observed = true
	h.done.Store(true)
}
