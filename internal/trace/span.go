// The span model: where Counters answer "how many", spans answer "when and
// for how long". A Span is a closed [Begin, End] interval scoped to a thread
// (scheduler occupancy, blocked intervals), an endpoint (sends, ingress
// drains, direct deliveries, match-to-observe latency), or an RSR call
// (client issue-to-reply, server dispatch), plus the recovery brackets
// (checkpoint capture, restore). Timestamps are machine.Host.Now values, so
// spans carry virtual time under the simulation kernel and wall time since
// host start in real mode — the exporter does not care which.
//
// Emission discipline: a span is recorded once, at its End, carrying the
// Begin the instrumentation site remembered. There is no begin/end pairing
// at export time and an abandoned begin costs nothing.
package trace

import (
	"sort"
	"sync"

	"chant/internal/sim"
)

// SpanKind identifies what interval a span measures.
type SpanKind uint8

const (
	// SpanRun is a thread occupying the processor: full switch-in to the
	// moment control returns to the scheduler.
	SpanRun SpanKind = iota
	// SpanBlocked is a thread parked off the ready queue: Block to Unblock.
	SpanBlocked
	// SpanSend brackets one send through the endpoint, transport included.
	SpanSend
	// SpanMatch measures delivery-to-observation latency: a receive
	// completing in the mailbox until the waiting thread sees it.
	SpanMatch
	// SpanIngressDrain brackets one batched drain of the MPSC ingress ring.
	SpanIngressDrain
	// SpanDirectDeliver marks a zero-copy delivery straight into a posted
	// receive's buffer (instantaneous: Begin == End).
	SpanDirectDeliver
	// SpanRSRCall is the client side of a remote service request: issue to
	// decoded reply.
	SpanRSRCall
	// SpanRSRServe is the server side: request picked up to handler done.
	SpanRSRServe
	// SpanCheckpoint brackets one local checkpoint capture.
	SpanCheckpoint
	// SpanRestore brackets restoring a process from a checkpoint.
	SpanRestore

	numSpanKinds
)

// String names the kind as it appears in exported traces.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

var spanKindNames = [...]string{
	SpanRun:           "run",
	SpanBlocked:       "blocked",
	SpanSend:          "send",
	SpanMatch:         "match",
	SpanIngressDrain:  "ingress-drain",
	SpanDirectDeliver: "direct-deliver",
	SpanRSRCall:       "rsr-call",
	SpanRSRServe:      "rsr-serve",
	SpanCheckpoint:    "checkpoint",
	SpanRestore:       "restore",
}

// Category groups kinds into Perfetto categories.
func (k SpanKind) Category() string {
	switch k {
	case SpanRun, SpanBlocked:
		return "sched"
	case SpanSend, SpanMatch, SpanIngressDrain, SpanDirectDeliver:
		return "comm"
	case SpanRSRCall, SpanRSRServe:
		return "rsr"
	default:
		return "recovery"
	}
}

// EndpointTID is the pseudo-thread spans not attributable to a specific
// thread are filed under (endpoint- and transport-side work).
const EndpointTID int32 = -1

// Span is one recorded interval. Arg carries a kind-specific figure: bytes
// for send/deliver kinds, messages drained for SpanIngressDrain, the handler
// id for RSR kinds, the checkpoint id for recovery kinds.
type Span struct {
	Kind    SpanKind
	PE, TID int32
	Begin   sim.Time
	End     sim.Time
	Arg     uint64
}

// Tracer collects spans. A nil *Tracer is the disabled state: every
// instrumentation site guards with a single nil compare before gathering
// timestamps, so tracing costs nothing when off — in particular the
// real-mode hot path stays allocation- and lock-free.
//
// Two backing stores share the front door. Deterministic (sim) runs append
// under a mutex in emission order, exactly as cheap as the existing event
// Log (uncontended: one simulation process runs at a time). Real-mode runs
// use the lock-free per-PE flight recorder instead (see recorder.go), since
// a mutex per span on the data-plane hot path would serialize the PEs being
// measured.
type Tracer struct {
	rec *Recorder

	mu      sync.Mutex
	spans   []Span
	limit   int
	dropped uint64
}

// defaultSpanLimit bounds the deterministic store: enough for every
// chantbench workload while keeping a runaway trace from eating the heap.
const defaultSpanLimit = 1 << 20

// NewTracer returns a tracer with the deterministic ordered store, holding
// at most limit spans (0 selects a generous default). Use for simulation
// runs of either kernel.
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = defaultSpanLimit
	}
	return &Tracer{limit: limit}
}

// NewFlightTracer returns a tracer backed by a lock-free flight recorder
// with one ring per PE of slotsPerRing slots each (0 selects defaults).
// Use for real-mode runs; old spans are overwritten once a ring wraps.
func NewFlightTracer(pes, slotsPerRing int) *Tracer {
	return &Tracer{rec: NewRecorder(pes, slotsPerRing)}
}

// Span records one interval. The receiver must be non-nil; callers gate on
// that themselves so disabled tracing skips timestamp collection too.
func (t *Tracer) Span(kind SpanKind, pe, tid int32, begin, end sim.Time, arg uint64) {
	if t.rec != nil {
		t.rec.Record(int(pe), Span{Kind: kind, PE: pe, TID: tid, Begin: begin, End: end, Arg: arg})
		return
	}
	t.mu.Lock()
	if len(t.spans) >= t.limit {
		t.dropped++
	} else {
		t.spans = append(t.spans, Span{Kind: kind, PE: pe, TID: tid, Begin: begin, End: end, Arg: arg})
	}
	t.mu.Unlock()
}

// Snapshot returns the collected spans in canonical order (Begin, End,
// Kind, PE, TID, Arg): a total order independent of which store backed the
// tracer and of emission interleaving, so two runs that emitted the same
// spans snapshot to the same slice.
func (t *Tracer) Snapshot() []Span {
	var out []Span
	if t.rec != nil {
		out = t.rec.Snapshot()
	} else {
		t.mu.Lock()
		out = append(out, t.spans...)
		t.mu.Unlock()
	}
	SortSpans(out)
	return out
}

// Dropped reports how many spans were lost: limit overflow on the
// deterministic store, ring overwrites on the flight recorder.
func (t *Tracer) Dropped() uint64 {
	if t.rec != nil {
		return t.rec.Dropped()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SortSpans orders spans canonically (Begin, End, Kind, PE, TID, Arg).
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.PE != b.PE {
			return a.PE < b.PE
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Arg < b.Arg
	})
}
