package core

import (
	"fmt"
	"math"

	"chant/internal/wire"
)

// Group is an ordered set of global threads participating in collective
// operations. The paper's Figure 3 lists process-group management among
// the required communication-package capabilities; Chant lifts groups to
// thread granularity, which is what its intended clients (task-parallel
// HPF, shared data abstractions) coordinate between.
//
// Every member must construct its own Group handle with the identical
// member list and tag base, and all members must invoke the same
// collectives in the same order (the usual MPI-style requirement); a
// per-handle sequence number then keeps consecutive collectives from
// interfering. Collectives use exact tags and exact member addressing, so
// they work under every delivery mode, including tag overloading.
type Group struct {
	members []GlobalID
	rank    map[GlobalID]int
	tagBase int32
	seq     int32
}

// groupTagWindow is the number of consecutive tags a group consumes from
// its base; sequence numbers wrap within it.
const groupTagWindow = 256

// groupLevelTags is the per-collective tag block: tree algorithms tag each
// level distinctly so that, under tag-overload delivery (where
// source-thread selection is unavailable), partials from different
// children in the same process can never cross-match.
const groupLevelTags = 32

// NewGroup builds a group handle over members (identical order at every
// member). tagBase reserves [tagBase, tagBase+groupTagWindow) of the user
// tag space for this group's traffic.
func NewGroup(members []GlobalID, tagBase int32) (*Group, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: empty group")
	}
	if tagBase < 0 || tagBase+groupTagWindow > TagReserved {
		return nil, fmt.Errorf("%w: group tag window [%d,%d) outside user tag space",
			ErrBadTag, tagBase, tagBase+groupTagWindow)
	}
	g := &Group{
		members: append([]GlobalID(nil), members...),
		rank:    make(map[GlobalID]int, len(members)),
		tagBase: tagBase,
	}
	for i, m := range members {
		if _, dup := g.rank[m]; dup {
			return nil, fmt.Errorf("core: duplicate group member %v", m)
		}
		g.rank[m] = i
	}
	return g, nil
}

// Size reports the number of members.
func (g *Group) Size() int { return len(g.members) }

// Member reports the global id at the given rank.
func (g *Group) Member(rank int) GlobalID { return g.members[rank] }

// Rank reports a member's position, or -1 if id is not a member.
func (g *Group) Rank(id GlobalID) int {
	if r, ok := g.rank[id]; ok {
		return r
	}
	return -1
}

// nextTag advances the collective sequence and returns the base of its
// tag block; level i of a tree algorithm uses base+i.
func (g *Group) nextTag() int32 {
	blocks := int32(groupTagWindow / groupLevelTags)
	base := g.tagBase + (g.seq%blocks)*groupLevelTags
	g.seq++
	return base
}

// levelOf reports the tree level (bit index) of a power-of-two mask.
func levelOf(mask int) int32 {
	l := int32(0)
	for mask > 1 {
		mask >>= 1
		l++
	}
	return l
}

// callerRank validates that t is a member and returns its rank.
func (g *Group) callerRank(t *Thread) (int, error) {
	r := g.Rank(t.ID())
	if r < 0 {
		return 0, fmt.Errorf("core: thread %v is not a member of this group", t.ID())
	}
	return r, nil
}

// Broadcast distributes root's buf to every member (binomial tree). All
// members pass a buffer of the same length; on non-roots it receives the
// payload. It returns the payload length.
func (g *Group) Broadcast(t *Thread, root int, buf []byte) (int, error) {
	rank, err := g.callerRank(t)
	if err != nil {
		return 0, err
	}
	if root < 0 || root >= g.Size() {
		return 0, fmt.Errorf("core: broadcast root %d out of range", root)
	}
	tag := g.nextTag()
	size := g.Size()
	rel := (rank - root + size) % size
	n := len(buf)

	// Receive from the parent (the member that differs in the lowest set
	// bit of our relative rank).
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := (rel - mask + root) % size
			got, _, err := t.Recv(g.members[src], tag+levelOf(mask), buf)
			if err != nil {
				return 0, err
			}
			n = got
			break
		}
		mask <<= 1
	}
	// Forward to children.
	mask >>= 1
	for mask > 0 {
		if rel&^(mask-1) == rel && rel+mask < size { // rel's low bits below mask are zero
			dst := (rel + mask + root) % size
			if err := t.Send(g.members[dst], tag+levelOf(mask), buf[:n]); err != nil {
				return 0, err
			}
		}
		mask >>= 1
	}
	return n, nil
}

// ReduceFunc combines two partial values into one (it must be associative
// and commutative). The returned slice may alias either input.
type ReduceFunc func(a, b []byte) []byte

// Reduce combines every member's value at root (binomial tree). Only the
// root's returned slice is meaningful; other members receive nil.
func (g *Group) Reduce(t *Thread, root int, op ReduceFunc, value []byte, maxPartial int) ([]byte, error) {
	rank, err := g.callerRank(t)
	if err != nil {
		return nil, err
	}
	if root < 0 || root >= g.Size() {
		return nil, fmt.Errorf("core: reduce root %d out of range", root)
	}
	tag := g.nextTag()
	size := g.Size()
	rel := (rank - root + size) % size

	acc := append([]byte(nil), value...)
	buf := make([]byte, maxPartial)
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			dst := (rel - mask + root) % size
			if err := t.Send(g.members[dst], tag+levelOf(mask), acc); err != nil {
				return nil, err
			}
			return nil, nil // partial handed upward; done
		}
		if rel+mask < size {
			src := (rel + mask + root) % size
			n, _, err := t.Recv(g.members[src], tag+levelOf(mask), buf)
			if err != nil {
				return nil, err
			}
			acc = op(acc, buf[:n])
		}
	}
	return acc, nil
}

// Barrier blocks until every member has entered it (a zero-byte reduce to
// rank 0 followed by a zero-byte broadcast).
func (g *Group) Barrier(t *Thread) error {
	if _, err := g.Reduce(t, 0, func(a, b []byte) []byte { return a }, nil, 1); err != nil {
		return err
	}
	_, err := g.Broadcast(t, 0, []byte{})
	return err
}

// Gather collects every member's value at root, ordered by rank. Only the
// root's returned slice is meaningful. Each value must be at most
// maxPartial bytes.
func (g *Group) Gather(t *Thread, root int, value []byte, maxPartial int) ([][]byte, error) {
	rank, err := g.callerRank(t)
	if err != nil {
		return nil, err
	}
	if root < 0 || root >= g.Size() {
		return nil, fmt.Errorf("core: gather root %d out of range", root)
	}
	tag := g.nextTag()
	if rank != root {
		return nil, t.Send(g.members[root], tag, value)
	}
	out := make([][]byte, g.Size())
	out[root] = append([]byte(nil), value...)
	buf := make([]byte, maxPartial)
	for i := 0; i < g.Size()-1; i++ {
		// Receive from anyone and slot by the sender's identity, so no
		// source-selective matching is needed (tag-overload compatible).
		n, from, err := t.Recv(AnyThread, tag, buf)
		if err != nil {
			return nil, err
		}
		r := g.Rank(from)
		if r < 0 {
			return nil, fmt.Errorf("core: gather received from non-member %v", from)
		}
		if out[r] != nil {
			return nil, fmt.Errorf("core: gather received twice from rank %d", r)
		}
		out[r] = append([]byte(nil), buf[:n]...)
	}
	return out, nil
}

// --- int64 conveniences ---

// Int64Op names a built-in reduction on int64 values.
type Int64Op int

// Built-in reductions.
const (
	OpSum Int64Op = iota
	OpMin
	OpMax
)

func (op Int64Op) apply(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	}
	panic("core: unknown Int64Op")
}

// encodeInt64 frames a reduction partial: [value i64], exactly.
func encodeInt64(v int64) []byte {
	e := wire.NewEnc(8)
	e.I64(v)
	return e.Out()
}

func decodeInt64(b []byte) (int64, error) {
	d := wire.NewDec(b)
	if v := d.I64(); d.End() == nil {
		return v, nil
	}
	return 0, fmt.Errorf("core: malformed int64 partial (%d bytes)", len(b))
}

// ReduceInt64 reduces one int64 per member at root. Non-roots receive 0.
func (g *Group) ReduceInt64(t *Thread, root int, op Int64Op, value int64) (int64, error) {
	res, err := g.Reduce(t, root, func(a, b []byte) []byte {
		x, err1 := decodeInt64(a)
		y, err2 := decodeInt64(b)
		if err1 != nil || err2 != nil {
			return a // malformed partials surface as a wrong root value
		}
		return encodeInt64(op.apply(x, y))
	}, encodeInt64(value), 8)
	if err != nil || res == nil {
		return 0, err
	}
	return decodeInt64(res)
}

// AllReduceInt64 reduces at rank 0 and broadcasts the result to everyone.
func (g *Group) AllReduceInt64(t *Thread, op Int64Op, value int64) (int64, error) {
	res, err := g.ReduceInt64(t, 0, op, value)
	if err != nil {
		return 0, err
	}
	buf := encodeInt64(res)
	if _, err := g.Broadcast(t, 0, buf); err != nil {
		return 0, err
	}
	return decodeInt64(buf)
}

// Scatter distributes one per-member value from root: values[r] goes to
// rank r (only the root's values argument is read). Every member receives
// into buf and gets back the received length.
func (g *Group) Scatter(t *Thread, root int, values [][]byte, buf []byte) (int, error) {
	rank, err := g.callerRank(t)
	if err != nil {
		return 0, err
	}
	if root < 0 || root >= g.Size() {
		return 0, fmt.Errorf("core: scatter root %d out of range", root)
	}
	tag := g.nextTag()
	if rank == root {
		if len(values) != g.Size() {
			return 0, fmt.Errorf("core: scatter needs %d values, got %d", g.Size(), len(values))
		}
		for r, v := range values {
			if r == root {
				continue
			}
			if err := t.Send(g.members[r], tag, v); err != nil {
				return 0, err
			}
		}
		return copy(buf, values[root]), nil
	}
	n, _, err := t.Recv(g.members[root], tag, buf)
	return n, err
}

// AllGather collects every member's value at every member, ordered by
// rank: a gather to rank 0 followed by a broadcast of the packed result.
// Each value must be at most maxPartial bytes.
func (g *Group) AllGather(t *Thread, value []byte, maxPartial int) ([][]byte, error) {
	if _, err := g.callerRank(t); err != nil {
		return nil, err
	}
	// The pack's lengths are u16. Refuse what cannot fit before any member
	// communicates: maxPartial and the group are the same everywhere, so
	// every member fails alike instead of some hanging in the broadcast.
	if maxPartial > math.MaxUint16 || g.Size() > math.MaxUint16 || len(value) > maxPartial {
		return nil, fmt.Errorf("core: allgather value of %d bytes (limit %d) in a group of %d does not fit the pack's u16 fields",
			len(value), maxPartial, g.Size())
	}
	gathered, err := g.Gather(t, 0, value, maxPartial)
	if err != nil {
		return nil, err
	}
	// Pack at the root: [count u16] then per value [len u16][bytes].
	size := 2 + g.Size()*(2+maxPartial)
	var packed []byte
	if gathered != nil {
		e := wire.NewEnc(size)
		e.U16(uint16(len(gathered)))
		for _, v := range gathered {
			e.Bytes16(v)
		}
		packed = e.Out()
	} else {
		packed = make([]byte, size)
	}
	n, err := g.Broadcast(t, 0, packed)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(packed[:n])
	out := make([][]byte, d.Limit(int(d.U16()), d.Len()/2))
	for i := range out {
		out[i] = d.Bytes16()
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("core: truncated allgather pack")
	}
	return out, nil
}
