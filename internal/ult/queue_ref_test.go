package ult

// LinearQueue is the seed scheduler's ready queue, preserved verbatim as
// the reference model: differential tests assert ReadyQueue pops the same
// thread sequence, and BenchmarkHotPathReadyQueue* measures the indexed
// queue against this baseline.
type LinearQueue struct {
	s []*TCB
}

// Len reports the number of queued threads.
func (q *LinearQueue) Len() int { return len(q.s) }

// Push appends t to the queue.
func (q *LinearQueue) Push(t *TCB) { q.s = append(q.s, t) }

// Pop removes and returns the first queued thread of the highest current
// priority — the seed's O(n) pickReady scan.
func (q *LinearQueue) Pop() *TCB {
	if len(q.s) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(q.s); i++ {
		if q.s[i].prio > q.s[best].prio {
			best = i
		}
	}
	t := q.s[best]
	copy(q.s[best:], q.s[best+1:])
	q.s[len(q.s)-1] = nil
	q.s = q.s[:len(q.s)-1]
	return t
}
