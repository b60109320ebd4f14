package sim

// event is a scheduled occurrence in virtual time. Exactly one of fn or proc
// is set: fn is a kernel callback run inline; proc is a process to resume.
type event struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically (FIFO)
	fn   func()
	proc *Proc
}

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than using container/heap to avoid interface boxing on the hot path;
// the simulator pushes and pops one event per virtual-time step, in one
// pass when a process advances (pushPop).
type eventHeap struct {
	ev []event
}

func (h *eventHeap) Len() int { return len(h.ev) }

func (h *eventHeap) less(i, j int) bool { return h.ev[i].before(h.ev[j]) }

// before reports whether e comes before f in (at, seq) order.
func (e event) before(f event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev[last] = event{} // clear references for the garbage collector
	h.ev = h.ev[:last]
	h.siftDown(0)
	return top
}

// pushPop pushes e and pops the earliest event in one pass. When e is itself
// the earliest it comes straight back and the heap is untouched; otherwise
// it takes the root's place and sinks.
func (h *eventHeap) pushPop(e event) event {
	if len(h.ev) == 0 || !h.ev[0].before(e) {
		return e
	}
	top := h.ev[0]
	h.ev[0] = e
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.ev[i], h.ev[smallest] = h.ev[smallest], h.ev[i]
		i = smallest
	}
}
