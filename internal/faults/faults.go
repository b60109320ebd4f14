// Package faults is the deterministic fault-injection plane: a seeded,
// schedulable description of everything that can go wrong on the wire —
// message drop, duplication, delay jitter (and therefore reordering), link
// partition, and processing-element crash or stall — that transports consult
// on every delivery. All randomness flows from per-link xorshift streams
// derived from one seed, so a given seed and schedule produce exactly the
// same fault event sequence on every run: chaos experiments are as
// reproducible as the fault-free ones, which is what lets the soak test
// assert bitwise determinism under 5% message loss.
//
// The plan is purely decision-making: it never touches the clock, spawns no
// goroutines, and iterates no maps, so it stays inside the detlint
// determinism envelope without annotations. Transports own the mechanics
// (actually dropping, re-scheduling, failing handles); the plan only answers
// "what happens to this message?" and records what it answered.
package faults

import (
	"fmt"
	"sort"
	"sync"

	"chant/internal/comm"
	"chant/internal/sim"
)

// Kind labels one injected fault event.
type Kind uint8

const (
	// KindDrop is a message silently discarded by the injector.
	KindDrop Kind = iota
	// KindDup is a message delivered twice.
	KindDup
	// KindDelay is a message delivered late by a jittered amount.
	KindDelay
	// KindPartition is a message discarded because its link is cut.
	KindPartition
	// KindCrash is a message discarded because an end PE is dead.
	KindCrash
	// KindStall is a message held until a stalled PE resumes.
	KindStall
	// KindRecover is a PE coming back after a crash with a RestartAfter
	// delay. It is a witness-stream event, never a message decision.
	KindRecover
)

func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDup:
		return "dup"
	case KindDelay:
		return "delay"
	case KindPartition:
		return "partition"
	case KindCrash:
		return "crash"
	case KindStall:
		return "stall"
	case KindRecover:
		return "recover"
	}
	return "invalid"
}

// Link names a directed PE-to-PE wire. Fault streams are per-link so the
// decision sequence for one link depends only on that link's traffic order,
// never on how traffic interleaves across links.
type Link struct {
	SrcPE, DstPE int32
}

// LinkRates are the stochastic fault probabilities for one link.
type LinkRates struct {
	// DropProb is the probability a message is discarded.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// DelayProb is the probability a message receives extra latency drawn
	// uniformly from (0, DelayMax]. Delay jitter is also the reordering
	// mechanism: two back-to-back messages whose jitters invert their
	// arrival order are reordered on the wire.
	DelayProb float64
	// DelayMax bounds the injected extra latency.
	DelayMax sim.Duration
}

// Cut severs the (bidirectional) pair of links between PEs A and B over
// [From, To). A zero To cuts forever.
type Cut struct {
	A, B     int32
	From, To sim.Time
}

func (c Cut) active(now sim.Time) bool {
	return now >= c.From && (c.To == 0 || now < c.To)
}

// Crash kills PE at virtual time At: every message to or from it during the
// outage is discarded, and runtimes that consult the plan cancel its threads.
// A positive RestartAfter schedules recovery: the PE is dead only over
// [At, At+RestartAfter), after which a consulting runtime restarts it (from
// its latest checkpoint, when one exists). Zero keeps the crash permanent.
type Crash struct {
	PE           int32
	At           sim.Time
	RestartAfter sim.Duration
}

// deadAt reports whether this crash keeps pe dead at time now.
func (c Crash) deadAt(pe int32, now sim.Time) bool {
	if c.PE != pe || now < c.At {
		return false
	}
	return c.RestartAfter <= 0 || now < c.At.Add(c.RestartAfter)
}

// Stall freezes PE's wires over [From, To): messages touching it are held
// and delivered only after the stall ends (plus their normal latency).
type Stall struct {
	PE       int32
	From, To sim.Time
}

// Config is a complete fault schedule.
type Config struct {
	// Default applies to every link without a PerLink override.
	Default LinkRates
	// PerLink overrides rates for specific directed links.
	PerLink map[Link]LinkRates
	// Cuts are the scheduled partitions.
	Cuts []Cut
	// Crashes are the scheduled PE failures.
	Crashes []Crash
	// Stalls are the scheduled PE stall windows.
	Stalls []Stall
}

// Decision is the plan's answer for one message.
type Decision struct {
	// Drop discards the message entirely (Kind says why).
	Drop bool
	// Kind labels the fault when Drop is set or a delay was injected.
	Kind Kind
	// Delay is extra latency to add before delivery (stall or jitter).
	Delay sim.Duration
	// Duplicate requests a second delivery, DupDelay after the first.
	Duplicate bool
	// DupDelay separates the duplicate from the original so the two copies
	// are distinguishable events in the schedule.
	DupDelay sim.Duration
}

// Event is one recorded fault, in decision order. The event stream is the
// determinism witness: two runs with the same seed and schedule must
// produce identical streams.
type Event struct {
	Seq      uint64
	At       sim.Time
	Src, Dst comm.Addr
	Kind     Kind
	Delay    sim.Duration
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %v %v->%v %v +%v", e.Seq, e.At, e.Src, e.Dst, e.Kind, e.Delay)
}

// Stats summarizes a plan's injected faults. New fields append only — the
// chaos invariance hashes fold the whole struct in, so existing fields (and
// their order) are part of the pinned behaviour.
type Stats struct {
	Messages       uint64 // messages the plan decided on
	Drops          uint64 // stochastic drops
	Dups           uint64
	Delays         uint64
	PartitionDrops uint64
	CrashDrops     uint64
	StallDelays    uint64
	Crashes        uint64 // witnessed PE crash events
	Recoveries     uint64 // witnessed PE recover events
}

// linkState is one link's private decision stream.
type linkState struct {
	rng *sim.RNG
}

// Plan is an instantiated fault schedule. It is safe for concurrent use
// (real-time transports may deliver from several goroutines); under the
// single-threaded simulation kernel the lock is uncontended.
type Plan struct {
	cfg  Config
	seed uint64

	mu     sync.Mutex
	links  map[Link]*linkState
	events []Event
	seq    uint64
	stats  Stats
}

// New instantiates cfg under seed. The same (cfg, seed) pair always yields
// a plan making identical decisions for identical per-link traffic.
func New(cfg Config, seed uint64) *Plan {
	return &Plan{cfg: cfg, seed: seed, links: make(map[Link]*linkState)}
}

// rates reports the effective rates for a link.
func (p *Plan) rates(l Link) LinkRates {
	if r, ok := p.cfg.PerLink[l]; ok {
		return r
	}
	return p.cfg.Default
}

// linkStream returns (creating on first use) the link's decision stream.
// The stream seed mixes the plan seed with the link name via splitmix-style
// constants so adjacent links decorrelate.
func (p *Plan) linkStream(l Link) *linkState {
	if s, ok := p.links[l]; ok {
		return s
	}
	h := p.seed
	h ^= uint64(uint32(l.SrcPE)) * 0x9E3779B97F4A7C15
	h ^= uint64(uint32(l.DstPE)) * 0xBF58476D1CE4E5B9
	h ^= h >> 31
	s := &linkState{rng: sim.NewRNG(h | 1)}
	p.links[l] = s
	return s
}

// DeadAt reports whether pe is down at virtual time now: at or past a
// scheduled crash and, when the crash carries a RestartAfter delay, before
// its recovery instant. A crash without RestartAfter is permanent.
func (p *Plan) DeadAt(pe int32, now sim.Time) bool {
	for _, c := range p.cfg.Crashes {
		if c.deadAt(pe, now) {
			return true
		}
	}
	return false
}

// CutAt reports whether the (a, b) pair is partitioned at time now.
func (p *Plan) CutAt(a, b int32, now sim.Time) bool {
	for _, c := range p.cfg.Cuts {
		if ((c.A == a && c.B == b) || (c.A == b && c.B == a)) && c.active(now) {
			return true
		}
	}
	return false
}

// stallUntil reports the latest stall end covering pe at now (zero if none).
func (p *Plan) stallUntil(pe int32, now sim.Time) sim.Time {
	var until sim.Time
	for _, s := range p.cfg.Stalls {
		if s.PE == pe && now >= s.From && now < s.To && s.To > until {
			until = s.To
		}
	}
	return until
}

// Crashes reports the crash schedule sorted by time (then PE), the order a
// runtime should arm its crash events in. Each entry carries its recover
// time as Crash.RestartAfter (zero for a permanent crash).
func (p *Plan) Crashes() []Crash {
	out := make([]Crash, len(p.cfg.Crashes))
	copy(out, p.cfg.Crashes)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].PE < out[j].PE
	})
	return out
}

// Decide answers what happens to a message from src to dst of the given
// size at virtual time now, recording the fault events on the witness
// stream. Exactly three random draws are consumed per stochastic decision
// regardless of outcome, so a link's stream stays aligned whatever earlier
// messages suffered.
func (p *Plan) Decide(now sim.Time, src, dst comm.Addr, size int) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Messages++

	note := func(k Kind, delay sim.Duration) {
		p.seq++
		p.events = append(p.events, Event{Seq: p.seq, At: now, Src: src, Dst: dst, Kind: k, Delay: delay})
	}

	// Deterministic schedule faults take priority over stochastic ones and
	// consume no randomness.
	if p.DeadAt(src.PE, now) || p.DeadAt(dst.PE, now) {
		p.stats.CrashDrops++
		note(KindCrash, 0)
		return Decision{Drop: true, Kind: KindCrash}
	}
	if p.CutAt(src.PE, dst.PE, now) {
		p.stats.PartitionDrops++
		note(KindPartition, 0)
		return Decision{Drop: true, Kind: KindPartition}
	}

	var d Decision
	if until := p.stallUntil(src.PE, now); until > now {
		d.Delay += until.Sub(now)
	}
	if until := p.stallUntil(dst.PE, now); until > now {
		if s := until.Sub(now); s > d.Delay {
			d.Delay = s
		}
	}
	if d.Delay > 0 {
		d.Kind = KindStall
		p.stats.StallDelays++
		note(KindStall, d.Delay)
	}

	r := p.rates(Link{SrcPE: src.PE, DstPE: dst.PE})
	s := p.linkStream(Link{SrcPE: src.PE, DstPE: dst.PE})
	uDrop := s.rng.Float64()
	uDup := s.rng.Float64()
	uDelay := s.rng.Float64()

	if r.DropProb > 0 && uDrop < r.DropProb {
		p.stats.Drops++
		note(KindDrop, 0)
		return Decision{Drop: true, Kind: KindDrop}
	}
	if r.DupProb > 0 && uDup < r.DupProb {
		d.Duplicate = true
		// Reuse the delay draw to place the duplicate: a fraction of
		// DelayMax, floored at one nanosecond so the copies never tie.
		d.DupDelay = sim.Duration(float64(max64(int64(r.DelayMax), 1))*uDelay) + 1
		p.stats.Dups++
		note(KindDup, d.DupDelay)
	}
	if r.DelayProb > 0 && r.DelayMax > 0 && uDelay < r.DelayProb {
		extra := sim.Duration(float64(r.DelayMax)*uDrop) + 1
		d.Delay += extra
		if d.Kind != KindStall {
			d.Kind = KindDelay
		}
		p.stats.Delays++
		note(KindDelay, extra)
	}
	return d
}

// WitnessCrash records a PE crash on the witness stream at the instant the
// runtime executes it. The event's Delay field carries the recover time
// (RestartAfter; zero for a permanent crash), so crash/recover pairs are
// readable from the stream alone. Runtimes call it from the crash's own
// kernel callback, so it lands in event order with the message faults.
func (p *Plan) WitnessCrash(pe int32, at sim.Time, restartAfter sim.Duration) {
	a := comm.Addr{PE: pe, Proc: -1}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Crashes++
	p.seq++
	p.events = append(p.events, Event{Seq: p.seq, At: at, Src: a, Dst: a, Kind: KindCrash, Delay: restartAfter})
}

// WitnessRecover records a PE recovery on the witness stream, pairing the
// crash event that scheduled it. Same ordering contract as WitnessCrash.
func (p *Plan) WitnessRecover(pe int32, at sim.Time) {
	a := comm.Addr{PE: pe, Proc: -1}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Recoveries++
	p.seq++
	p.events = append(p.events, Event{Seq: p.seq, At: at, Src: a, Dst: a, Kind: KindRecover})
}

// Events snapshots the recorded fault event stream.
func (p *Plan) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Event, len(p.events))
	copy(out, p.events)
	return out
}

// Stats snapshots the fault counts.
func (p *Plan) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
