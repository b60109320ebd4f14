package ult

import "math/bits"

// This file holds the scheduler's indexed ready queue. The seed
// implementation picked the next thread with a linear max-priority scan over
// one slice — O(n) per scheduling decision, which dominates the context
// switch the paper's Table 2 is built around once thread counts grow. The
// ReadyQueue replaces it with per-priority FIFO ring deques plus an
// occupancy bitmap, making both enqueue and pick O(1) for the priorities
// programs actually use, while reproducing the linear scan's semantics
// exactly:
//
//   - pick = the thread with the highest *current* priority, oldest
//     enqueue first among equals (the scan read t.prio at pick time, so a
//     priority raised while queued took effect immediately);
//   - within one priority, strict FIFO in enqueue order.
//
// Equivalence is maintained by stamping every enqueue with a monotonic
// sequence number and, when a queued thread's priority changes, eagerly
// relocating it into its new priority's deque at its sequence-ordered
// position. Relocation is O(deque length) but happens only on the rare
// raise-while-queued path (the paper's server boost fires while the server
// is blocked, not queued); every hot-path operation touches O(1) entries.
// LinearQueue (queue_ref_test.go) preserves the seed algorithm as a
// reference model for differential tests and the BenchmarkHotPath baselines.

// prioRing is one priority's FIFO deque: a growable circular buffer.
type prioRing struct {
	buf  []*TCB
	head int
	n    int
}

func (r *prioRing) grow() {
	next := make([]*TCB, max(4, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = next, 0
}

func (r *prioRing) pushBack(t *TCB) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = t
	r.n++
}

func (r *prioRing) popFront() *TCB {
	t := r.buf[r.head]
	r.buf[r.head] = nil // release the reference; the deque outlives the thread
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return t
}

// at reports the i-th element from the front.
func (r *prioRing) at(i int) *TCB { return r.buf[(r.head+i)%len(r.buf)] }

// removeAt deletes the i-th element from the front, shifting the tail.
func (r *prioRing) removeAt(i int) {
	for j := i; j < r.n-1; j++ {
		r.buf[(r.head+j)%len(r.buf)] = r.buf[(r.head+j+1)%len(r.buf)]
	}
	r.buf[(r.head+r.n-1)%len(r.buf)] = nil
	r.n--
}

// insertSorted places t at its sequence-ordered position (ascending
// readySeq), so a relocated thread keeps its enqueue-order rank among the
// threads that now share its priority.
func (r *prioRing) insertSorted(t *TCB) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.n
	for i > 0 && r.at(i-1).readySeq > t.readySeq {
		r.buf[(r.head+i)%len(r.buf)] = r.at(i - 1)
		i--
	}
	r.buf[(r.head+i)%len(r.buf)] = t
	r.n++
}

// bitmapPrios is the priority window covered by the occupancy bitmap:
// priorities in [0, 64) — which includes the default 0 and the server-boost
// priorities — resolve their highest occupied level with one bits.Len64.
const bitmapPrios = 64

// ReadyQueue is the scheduler's indexed run queue. The zero value is ready
// to use. It is exported (despite living in an internal package) so the
// benchmark can drive it directly.
type ReadyQueue struct {
	buckets map[int]*prioRing
	occ     uint64 // bit p set <=> bucket for priority p (0<=p<64) is nonempty
	above   []int  // occupied priorities >= 64, sorted ascending (rare)
	below   []int  // occupied priorities < 0, sorted ascending (rare)
	size    int
	seq     uint64
}

// Len reports the number of queued threads.
func (q *ReadyQueue) Len() int { return q.size }

// Push appends t at the back of its current priority's deque.
func (q *ReadyQueue) Push(t *TCB) {
	q.seq++
	t.readySeq = q.seq
	t.readyPrio = t.prio
	t.inReady = true
	q.bucket(t.prio).pushBack(t)
	q.size++
}

// Pop removes and returns the oldest thread of the highest occupied
// priority, or nil if the queue is empty.
func (q *ReadyQueue) Pop() *TCB {
	p, ok := q.topPrio()
	if !ok {
		return nil
	}
	r := q.buckets[p]
	t := r.popFront()
	if r.n == 0 {
		q.deactivate(p)
	}
	t.inReady = false
	q.size--
	return t
}

// Do calls fn for every queued thread, highest priority first and FIFO
// within a priority (a deterministic order, for the chantdebug audit).
func (q *ReadyQueue) Do(fn func(*TCB)) {
	walk := func(p int) {
		r := q.buckets[p]
		for i := 0; i < r.n; i++ {
			fn(r.at(i))
		}
	}
	for i := len(q.above) - 1; i >= 0; i-- {
		walk(q.above[i])
	}
	for occ := q.occ; occ != 0; {
		p := bits.Len64(occ) - 1
		walk(p)
		occ &^= 1 << uint(p)
	}
	for i := len(q.below) - 1; i >= 0; i-- {
		walk(q.below[i])
	}
}

// move relocates a queued thread from priority from to priority to,
// preserving its sequence-ordered rank in the destination deque. Called by
// TCB.SetPriority when the thread is queued; the linear scan this queue
// replaces honored such changes at pick time, so the indexed queue must
// honor them eagerly.
func (q *ReadyQueue) move(t *TCB, from, to int) {
	r := q.buckets[from]
	for i := 0; i < r.n; i++ {
		if r.at(i) == t {
			r.removeAt(i)
			break
		}
	}
	if r.n == 0 {
		q.deactivate(from)
	}
	t.readyPrio = to
	q.bucket(to).insertSorted(t)
}

// bucket returns (activating if empty) the deque for priority p.
func (q *ReadyQueue) bucket(p int) *prioRing {
	if q.buckets == nil {
		q.buckets = make(map[int]*prioRing)
	}
	r := q.buckets[p]
	if r == nil {
		r = &prioRing{}
		q.buckets[p] = r
	}
	if r.n == 0 {
		q.activate(p)
	}
	return r
}

// topPrio reports the highest occupied priority.
func (q *ReadyQueue) topPrio() (int, bool) {
	if len(q.above) > 0 {
		return q.above[len(q.above)-1], true
	}
	if q.occ != 0 {
		return bits.Len64(q.occ) - 1, true
	}
	if len(q.below) > 0 {
		return q.below[len(q.below)-1], true
	}
	return 0, false
}

func (q *ReadyQueue) activate(p int) {
	switch {
	case 0 <= p && p < bitmapPrios:
		q.occ |= 1 << uint(p)
	case p >= bitmapPrios:
		q.above = insertPrio(q.above, p)
	default:
		q.below = insertPrio(q.below, p)
	}
}

func (q *ReadyQueue) deactivate(p int) {
	switch {
	case 0 <= p && p < bitmapPrios:
		q.occ &^= 1 << uint(p)
	case p >= bitmapPrios:
		q.above = removePrio(q.above, p)
	default:
		q.below = removePrio(q.below, p)
	}
}

// insertPrio adds p to a sorted (ascending) priority list if absent.
func insertPrio(list []int, p int) []int {
	i := 0
	for i < len(list) && list[i] < p {
		i++
	}
	if i < len(list) && list[i] == p {
		return list
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = p
	return list
}

// removePrio deletes p from a sorted priority list.
func removePrio(list []int, p int) []int {
	for i, x := range list {
		if x == p {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// NewBenchTCB creates a detached TCB usable only as a ready-queue element —
// for the hot-path benchmarks and differential tests, which exercise queue
// mechanics without running threads.
func NewBenchTCB(id int32, prio int) *TCB {
	return &TCB{id: id, prio: prio}
}
