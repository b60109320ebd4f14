// Package trace provides the instrumentation used to reproduce the paper's
// reported metrics: complete context switches, msgtest call counts, and the
// time-averaged number of threads waiting on outstanding receive requests
// (Figures 11-13). Counters are cheap enough to leave enabled; the
// experiment harness reads them after each run.
package trace

import (
	"sync"
	"sync/atomic"

	"chant/internal/sim"
)

// Counters accumulates event counts for one process. All counter fields are
// safe for concurrent update (real-mode transports may deliver from another
// process's goroutine); the waiting-thread integrator is guarded by its own
// mutex.
type Counters struct {
	// Scheduler events.
	FullSwitches    atomic.Uint64 // complete context switches (restore of a different thread)
	PartialSwitches atomic.Uint64 // TCB inspections without a restore (Scheduler polls (PS))
	Yields          atomic.Uint64 // yield calls, total
	YieldsNoSwitch  atomic.Uint64 // yields that returned immediately (no other ready thread)
	IdleEntries     atomic.Uint64 // times the scheduler found nothing runnable
	ThreadsCreated  atomic.Uint64

	// Communication events.
	Sends          atomic.Uint64
	Recvs          atomic.Uint64 // completed receives
	RecvImmediate  atomic.Uint64 // receives that matched an already-arrived message at post time
	EarlyArrivals  atomic.Uint64 // messages buffered in the unexpected queue (extra copy)
	BytesSent      atomic.Uint64
	MsgTestCalls   atomic.Uint64 // msgtest attempts (paper Tables 3-5, "msgtest" column)
	MsgTestFails   atomic.Uint64 // msgtest attempts that found the operation incomplete (Figure 12)
	TestAnyCalls   atomic.Uint64
	TestAnyScanned atomic.Uint64 // outstanding requests examined across all testany calls

	// Remote service requests.
	RSRRequests atomic.Uint64 // requests served by this process's server thread
	RSRSent     atomic.Uint64 // requests issued from this process

	// Conservative simulation (the pdes null-message protocol).
	NullsSent atomic.Uint64 // CMB null messages emitted by LPs on this process

	// Robustness events (fault injection, failure detection, recovery).
	FaultDrops        atomic.Uint64 // outbound messages dropped by the fault plane
	FaultDups         atomic.Uint64 // outbound messages duplicated by the fault plane
	FaultDelays       atomic.Uint64 // outbound messages delayed/stalled by the fault plane
	UnexpectedDropped atomic.Uint64 // messages dropped at the unexpected-queue cap
	RecvTimeouts      atomic.Uint64 // receives abandoned by a deadline wait
	PeerDeadRecvs     atomic.Uint64 // receives failed because their peer was declared dead
	PeersDead         atomic.Uint64 // peers this process declared dead
	RSRRetries        atomic.Uint64 // RSR call attempts beyond the first
	RSRTimeouts       atomic.Uint64 // RSR calls that exhausted their retry budget
	RSRDupsServed     atomic.Uint64 // duplicate RSR requests answered from the dedup cache

	// Recovery events (coordinated checkpoints and PE restart).
	Checkpoints      atomic.Uint64 // coordinated snapshots this process finalized
	InFlightLogged   atomic.Uint64 // in-flight messages recorded between marker arrivals
	Restarts         atomic.Uint64 // times this process was restored from a checkpoint
	InFlightReplayed atomic.Uint64 // logged messages re-delivered after a restore
	RejoinsServed    atomic.Uint64 // rejoin announcements served from restarted peers
	PeersRecovered   atomic.Uint64 // peers this process moved from dead back to alive

	wait waitingIntegrator
}

// waitingIntegrator computes the time average of the number of threads
// waiting on outstanding receive requests, as plotted in Figure 13.
type waitingIntegrator struct {
	mu       sync.Mutex
	current  int
	max      int
	lastAt   sim.Time
	integral float64 // thread-nanoseconds
	started  bool
	startAt  sim.Time
}

// WaitBegin records that one more thread started waiting on an outstanding
// receive at virtual time now.
func (c *Counters) WaitBegin(now sim.Time) { c.wait.update(now, +1) }

// WaitEnd records that a waiting thread's receive completed at time now.
func (c *Counters) WaitEnd(now sim.Time) { c.wait.update(now, -1) }

// WaitEndAt records that a receive stopped being outstanding at time at,
// which may lie in the past (the thread observes the arrival only when it
// is next polled or scheduled). The integral is corrected retroactively so
// the metric measures "threads waiting on outstanding receive requests"
// (paper Figure 13) — a request that has already been satisfied no longer
// counts, even if its thread has not yet resumed.
func (c *Counters) WaitEndAt(at sim.Time) {
	w := &c.wait
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started {
		panic("trace: WaitEndAt without WaitBegin")
	}
	if at >= w.lastAt {
		w.integral += float64(w.current) * float64(at.Sub(w.lastAt))
		w.lastAt = at
	} else {
		// Retroactive completion: remove this thread's contribution over
		// [at, lastAt]. Clamp at to the start of the observation window:
		// a completion stamped before the first wait event (a receive
		// satisfied before any thread was integrated as waiting, or a
		// failure detector marking a peer dead at an earlier timestamp)
		// must not subtract time that was never added, which would drive
		// the Figure-13 integral negative.
		if at < w.startAt {
			at = w.startAt
		}
		w.integral -= float64(w.lastAt.Sub(at))
	}
	w.current--
	if w.current < 0 {
		panic("trace: waiting-thread count went negative")
	}
}

func (w *waitingIntegrator) update(now sim.Time, delta int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started {
		w.started = true
		w.startAt = now
		w.lastAt = now
	}
	w.integral += float64(w.current) * float64(now.Sub(w.lastAt))
	w.lastAt = now
	w.current += delta
	if w.current < 0 {
		panic("trace: waiting-thread count went negative")
	}
	if w.current > w.max {
		w.max = w.current
	}
}

// AvgWaiting reports the time-averaged number of waiting threads over
// [first wait event, end]. It returns 0 if no thread ever waited.
func (c *Counters) AvgWaiting(end sim.Time) float64 {
	w := &c.wait
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started || end <= w.startAt {
		return 0
	}
	integral := w.integral + float64(w.current)*float64(end.Sub(w.lastAt))
	avg := integral / float64(end.Sub(w.startAt))
	if avg < 0 {
		// Retroactive corrections approximate per-thread wait windows with
		// the process-wide one; floating-point cancellation across many
		// corrections could otherwise leak an impossible negative average.
		return 0
	}
	return avg
}

// MaxWaiting reports the peak number of simultaneously waiting threads.
func (c *Counters) MaxWaiting() int {
	c.wait.mu.Lock()
	defer c.wait.mu.Unlock()
	return c.wait.max
}

// CurWaiting reports the instantaneous number of waiting threads.
func (c *Counters) CurWaiting() int {
	c.wait.mu.Lock()
	defer c.wait.mu.Unlock()
	return c.wait.current
}

// Snapshot is a plain-value copy of all counters, convenient for reports
// and for summation across processes.
type Snapshot struct {
	FullSwitches, PartialSwitches, Yields, YieldsNoSwitch, IdleEntries uint64
	ThreadsCreated                                                     uint64
	Sends, Recvs, RecvImmediate, EarlyArrivals, BytesSent              uint64
	MsgTestCalls, MsgTestFails, TestAnyCalls, TestAnyScanned           uint64
	RSRRequests, RSRSent                                               uint64
	NullsSent                                                          uint64
	FaultDrops, FaultDups, FaultDelays, UnexpectedDropped              uint64
	RecvTimeouts, PeerDeadRecvs, PeersDead                             uint64
	RSRRetries, RSRTimeouts, RSRDupsServed                             uint64
	Checkpoints, InFlightLogged, Restarts                              uint64
	InFlightReplayed, RejoinsServed, PeersRecovered                    uint64
	AvgWaiting                                                         float64
	MaxWaiting                                                         int
}

// Snap captures the current counter values, computing the waiting-thread
// average over the window ending at end.
func (c *Counters) Snap(end sim.Time) Snapshot {
	s := Snapshot{AvgWaiting: c.AvgWaiting(end), MaxWaiting: c.MaxWaiting()}
	for _, f := range SnapshotFields {
		if f.Live != nil {
			*f.Count(&s) = f.Live(c).Load()
		}
	}
	return s
}

// Preload adds the event counts of a checkpoint snapshot into c, so a
// process restored from that checkpoint continues its counter history instead
// of restarting from zero. The caller passes a freshly zeroed Counters;
// add-only keeps the counter discipline (no Store ever discards a racing
// Add). Only the plain accumulators are restorable; the waiting-thread
// integrator is time-coupled and starts fresh in the new life.
func (c *Counters) Preload(s Snapshot) {
	for _, f := range SnapshotFields {
		if f.Live != nil {
			f.Live(c).Add(*f.Count(&s))
		}
	}
}

// Add accumulates other into s field-by-field. Waiting-thread statistics
// are summed (the paper reports the total average across both processors'
// thread populations).
func (s *Snapshot) Add(other Snapshot) {
	for _, f := range SnapshotFields {
		if f.Count != nil {
			*f.Count(s) += *f.Count(&other)
		}
	}
	s.AvgWaiting += other.AvgWaiting
	if other.MaxWaiting > s.MaxWaiting {
		s.MaxWaiting = other.MaxWaiting
	}
}
