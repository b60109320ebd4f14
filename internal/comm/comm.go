// Package comm implements the message-passing communication substrate that
// Chant layers over, providing the Figure-3 capability set of the paper:
// process naming, blocking and nonblocking point-to-point operations with
// completion handles, message polling (msgtest / msgtestany / probe), and
// message headers carrying processor, process, context, and tag fields.
//
// The interface deliberately mirrors the common core of Intel NX and the
// 1993 MPI draft the paper targets:
//
//   - Send is locally blocking (NX csend): it returns once the user buffer
//     may be reused.
//   - Irecv posts a receive and returns a handle; if the message already
//     arrived it is matched against the unexpected queue, which models the
//     system-buffer copy the paper's design otherwise avoids.
//   - Test charges different costs for completed and incomplete operations
//     (on the Paragon, testing an incomplete request required an expensive
//     message-coprocessor interaction).
//   - TestAny is the MPI_TESTANY-style single call over a set of requests
//     whose absence from NX the paper calls out in Section 4.2.
//
// Delivery is transport-neutral: the simulated network (simnet), the
// in-memory network (memnet), and the TCP network (tcpnet) all deliver into
// the same mailbox matching engine.
package comm

import (
	"errors"
	"fmt"

	"chant/internal/machine"
	"chant/internal/sim"
)

// Any is the wildcard value for match fields (source PE, source process,
// context, and tag).
const Any int32 = -1

// Addr names a process: a processing element and a process index within it.
// This is the unit the underlying communication system can address; Chant's
// contribution is routing the last hop to a thread via the Ctx header field.
type Addr struct {
	PE   int32
	Proc int32
}

func (a Addr) String() string { return fmt.Sprintf("pe%d.p%d", a.PE, a.Proc) }

// Header is the message signature used for delivery and matching. Following
// the paper's delivery discussion (Section 3.1), the destination thread
// travels in the header — in the Ctx field (MPI communicator style) or
// packed into Tag (NX/p4 tag-overloading style) — never in the body.
type Header struct {
	SrcPE     int32
	SrcProc   int32
	SrcThread int32 // sending thread's local id, for replies
	DstPE     int32
	DstProc   int32
	Ctx       int32 // destination context: thread id or communicator
	Tag       int32 // user tag
	Size      int32 // payload bytes
	Flags     int32 // delivery flags (FlagSync); never part of matching
}

// FlagSync marks a globally-blocking (synchronous) send: the receiver's
// runtime acknowledges once the matching receive has been observed, and
// only then does the sender's SendSync return — the paper's
// "globally-blocking" degree of blocking.
const FlagSync int32 = 1 << 0

// Src reports the sending process address.
func (h Header) Src() Addr { return Addr{PE: h.SrcPE, Proc: h.SrcProc} }

// Dst reports the destination process address.
func (h Header) Dst() Addr { return Addr{PE: h.DstPE, Proc: h.DstProc} }

// Message is a header plus payload in flight. Data is owned by the message
// once submitted to a transport.
type Message struct {
	Hdr    Header
	Data   []byte
	SentAt sim.Time

	// pooled marks a message drawn from the recycling pool (pool.go); the
	// mailbox returns it there after its terminal copy.
	pooled bool
}

// MatchSpec selects which messages a receive accepts. Any field may be the
// wildcard Any. SrcThread matching is the MPI-communicator-style extension
// the paper contrasts with NX: systems whose headers can name threads may
// match on the sending thread directly, while tag-overloading systems must
// leave it Any.
type MatchSpec struct {
	SrcPE     int32
	SrcProc   int32
	SrcThread int32
	Ctx       int32
	Tag       int32
}

// MatchAll accepts every message.
var MatchAll = MatchSpec{SrcPE: Any, SrcProc: Any, SrcThread: Any, Ctx: Any, Tag: Any}

// Matches reports whether a message with header h satisfies the spec.
func (s MatchSpec) Matches(h Header) bool {
	return (s.SrcPE == Any || s.SrcPE == h.SrcPE) &&
		(s.SrcProc == Any || s.SrcProc == h.SrcProc) &&
		(s.SrcThread == Any || s.SrcThread == h.SrcThread) &&
		(s.Ctx == Any || s.Ctx == h.Ctx) &&
		(s.Tag == Any || s.Tag == h.Tag)
}

// ErrTruncated reports that an arriving message was larger than the posted
// receive buffer; the payload was truncated to fit.
var ErrTruncated = errors.New("comm: message truncated: receive buffer too small")

// ErrTimeout reports that a deadline-aware wait abandoned a receive before
// any matching message arrived. The receive is withdrawn from the mailbox; a
// message arriving later joins the unexpected queue like any other.
var ErrTimeout = errors.New("comm: receive deadline exceeded")

// ErrPeerDead reports that a receive can never complete because the only
// process it could match against has been declared dead. Peer failure is a
// completion event, not a silent hang: handles pinned to a dead peer finish
// immediately with this error.
var ErrPeerDead = errors.New("comm: peer process declared dead")

// Status classifies how a receive handle reached (or has not reached)
// completion, LCI-style: the handle carries not just "done" but *how* —
// delivered, timed out, or failed by peer death — so callers can branch on
// outcome without decoding errors.
type Status uint8

const (
	// StatusPending: the receive has not completed.
	StatusPending Status = iota
	// StatusDelivered: a matching message was deposited into the buffer.
	StatusDelivered
	// StatusTimedOut: a deadline wait withdrew the receive.
	StatusTimedOut
	// StatusPeerDead: the pinned source process was declared dead.
	StatusPeerDead
)

func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusDelivered:
		return "delivered"
	case StatusTimedOut:
		return "timed-out"
	case StatusPeerDead:
		return "peer-dead"
	}
	return "invalid"
}

// Transport moves a message to its destination process. Implementations
// must treat msg.Data as owned by the message (callers never mutate it after
// submission) and must eventually invoke the destination Endpoint's
// DeliverLocal.
type Transport interface {
	Deliver(msg *Message)
}

// DirectTransport is the optional borrowed-buffer extension of Transport. A
// transport that can reach the destination endpoint synchronously from the
// sending goroutine (memnet while both peers are open; tcpnet for loopback
// destinations) offers DeliverFrom: it hands hdr and the sender's own data
// to the destination's Endpoint.DeliverFrom, which deposits into a matching
// posted receive or queues a pooled copy stamped with from's clock, and it
// reports true. It reports false, and touches nothing, when the destination
// is not reachable that way; the sender then builds a pooled Message for the
// ordinary Deliver path, which owns all fault accounting. data is only read
// during the call and is never retained. simnet does not offer it: a
// simulated message always arrives as a scheduled event, never from the
// sender's own context.
type DirectTransport interface {
	DeliverFrom(hdr Header, data []byte, from machine.Host) bool
}
