// Package core implements Chant itself: the talking-threads runtime layered
// over the ult thread package and the comm message-passing library, exactly
// as Figure 4 of the paper draws it:
//
//	point-to-point message passing among global threads   (p2p.go, policy.go)
//	remote service requests via a server thread            (rsr.go)
//	global thread operations built on RSRs                 (global.go)
//	a pthreads-style interface                              (the chant package)
//
// The three design problems of Section 3.1 map onto this package directly:
// naming (GlobalID 3-tuples, this file), delivery (thread names travel in
// the message header — the Ctx field, a packed tag, or, for the ablation
// the paper rejects, the body), and polling (the pluggable policies of
// policy.go: Thread polls, Scheduler polls (PS), Scheduler polls (WQ), and
// the WQ/testany variant the paper hypothesizes about for MPI).
package core

import (
	"errors"
	"fmt"

	"chant/internal/comm"
)

// GlobalID names a thread anywhere in the machine: the paper's
// pthread_chanter_t 3-tuple of processing element, process, and local
// thread identifier.
type GlobalID struct {
	PE     int32
	Proc   int32
	Thread int32
}

// AnyField is the wildcard value for GlobalID fields and tags.
const AnyField int32 = -1

// AnyThread matches a message from any thread anywhere.
var AnyThread = GlobalID{PE: AnyField, Proc: AnyField, Thread: AnyField}

// Addr reports the process part of the global name.
func (g GlobalID) Addr() comm.Addr { return comm.Addr{PE: g.PE, Proc: g.Proc} }

// Equal reports whether two global identifiers name the same thread
// (pthread_chanter_equal).
func (g GlobalID) Equal(o GlobalID) bool { return g == o }

func (g GlobalID) String() string {
	return fmt.Sprintf("pe%d.p%d.t%d", g.PE, g.Proc, g.Thread)
}

// DeliveryMode selects where the destination thread identifier travels,
// following the Section 3.1 delivery discussion.
type DeliveryMode int

const (
	// DeliverCtx carries the thread id in a dedicated header context field,
	// the way MPI's communicator mechanism permits. Full source-thread
	// matching is available.
	DeliverCtx DeliveryMode = iota
	// DeliverTagPack overloads the user tag field, NX/p4 style: the
	// destination thread id occupies the high bits and the user tag the low
	// TagBits bits. Tag space is halved and source-thread selection and tag
	// wildcards are unavailable — the costs the paper accepts for such
	// systems.
	DeliverTagPack
	// DeliverBody places the thread id in the message body, forcing an
	// intermediate dispatcher thread to receive, decode, and forward every
	// message with extra copies on both sides. The paper rejects this
	// design; it is implemented for the delivery ablation.
	DeliverBody
)

func (m DeliveryMode) String() string {
	switch m {
	case DeliverCtx:
		return "ctx"
	case DeliverTagPack:
		return "tagpack"
	case DeliverBody:
		return "body"
	}
	return "invalid"
}

// tagBits is the number of low bits left for the user tag in
// DeliverTagPack mode ("reducing the number of tags allowed, typically to
// half the number of bits").
const tagBits = 16

// maxPackedThread is the largest thread id representable in a packed tag.
const maxPackedThread = (1 << 14) - 1

// Reserved tag values (all modes). User tags must stay below TagReserved.
const (
	// TagReserved is the first reserved tag value; user tags are
	// [0, TagReserved).
	TagReserved int32 = 0xC000
	// tagRSRRequest marks remote-service-request messages to the server
	// thread.
	tagRSRRequest int32 = 0xFFF0
	// tagDone and tagRelease implement the runtime's termination handshake.
	tagDone    int32 = 0xFFE0
	tagRelease int32 = 0xFFE1
	// tagSyncAck acknowledges globally-blocking sends (SendSync).
	tagSyncAck int32 = 0xFFE2
	// tagReplyBase..tagReplyBase+tagReplySpan is the RSR reply-tag window.
	tagReplyBase int32 = 0xC000
	tagReplySpan int32 = 0x1FF0
	// tagBodyWire marks body-mode wire messages awaiting dispatch. It is
	// negative so it can never collide with a user or reserved tag.
	tagBodyWire int32 = -2
)

// serverLocalID is the well-known local id of the server thread: the
// process main is thread 0 and the server is always created first, as
// thread 1.
const serverLocalID int32 = 1

// Errors reported by naming and delivery validation.
var (
	// ErrBadTag reports a user tag outside [0, TagReserved) or a tag
	// wildcard in a mode that cannot express one.
	ErrBadTag = errors.New("core: invalid user tag for this delivery mode")
	// ErrThreadRange reports a thread id too large to pack into a tag.
	ErrThreadRange = errors.New("core: thread id exceeds packed-tag range")
	// ErrBadTarget reports an operation aimed at a process that does not
	// exist in the topology.
	ErrBadTarget = errors.New("core: no such processing element or process")
)

// packTag combines a destination thread id and user tag into a single
// overloaded tag value.
func packTag(thread, tag int32) int32 {
	return thread<<tagBits | tag
}

// checkUserTag validates a user-supplied tag for sending. Wildcards are
// never valid on the send side.
func checkUserTag(tag int32) error {
	if tag < 0 || tag >= TagReserved {
		return fmt.Errorf("%w: tag %d not in [0, %d)", ErrBadTag, tag, TagReserved)
	}
	return nil
}
