package ult

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"testing"

	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

// schedOrderHash is the behaviour hash of the seeded churn below: every
// trace.Log event (virtual time, kind, thread) of five scheduler runs under
// the simulation kernel, their scheduler counters, end times and Run errors.
// It was measured with the run loop still on its own goroutine (commit
// ffb1597) and has not been re-pinned since: whichever goroutine runs the
// dispatch loop, the scheduling order and the sequence of cost-model charges
// are the model's and must not move.
const schedOrderHash = 0x186bcb7e3ebedc1f

// orderHasher folds scheduler runs into one FNV-1a stream.
type orderHasher struct{ hash.Hash64 }

func (o orderHasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	o.Write(b[:])
}

// runOrderScenario runs body as the main thread of a fresh scheduler on a
// fresh simulation kernel (Paragon costs, busy-poll idle, so every charge
// moves the virtual clock) and folds everything observable into o.
func (o orderHasher) runOrderScenario(t *testing.T, name string, wantErr error, body func(s *Sched, rng *sim.RNG)) {
	t.Helper()
	k := sim.NewKernel()
	log := trace.NewLog(1 << 16)
	ctrs := &trace.Counters{}
	var runErr error
	k.Spawn(name, func(p *sim.Proc) {
		s := NewSched(machine.NewSimHost(p, machine.Paragon1994()), ctrs, Options{Name: name, EventLog: log})
		rng := sim.NewRNG(0xC4A27 + uint64(len(name)))
		runErr = s.Run(func() { body(s, rng) })
	})
	if err := k.Run(0); err != nil {
		t.Fatalf("%s: kernel: %v", name, err)
	}
	if !errors.Is(runErr, wantErr) {
		t.Fatalf("%s: Run returned %v, want %v", name, runErr, wantErr)
	}
	evs := log.Snapshot()
	if uint64(len(evs)) != log.Total() {
		t.Fatalf("%s: event log overflowed (%d of %d retained)", name, len(evs), log.Total())
	}
	for _, e := range evs {
		o.u64(uint64(e.At))
		o.u64(uint64(e.Kind))
		o.u64(uint64(uint32(e.Thread)))
	}
	snap := ctrs.Snap(k.Now())
	for _, v := range []uint64{
		snap.FullSwitches, snap.PartialSwitches, snap.Yields,
		snap.YieldsNoSwitch, snap.IdleEntries, snap.ThreadsCreated,
		uint64(k.Now()), k.Events, log.Total(),
	} {
		o.u64(v)
	}
	if runErr != nil {
		o.Write([]byte(runErr.Error()))
	}
}

// installOrderPoller gives s a Scheduler-polls (WQ) shaped wakeup source: the
// returned wait blocks the calling thread until the pre-schedule hook has run
// n more times, and blocked waiters count as external, so a scheduler with
// nothing else to run idles instead of reporting deadlock.
func installOrderPoller(s *Sched) (wait func(n int)) {
	var polled []*TCB
	countdown := map[*TCB]int{}
	s.SetPreSchedule(func() {
		kept := polled[:0]
		for _, t := range polled {
			if t.State() != Blocked {
				continue // canceled while waiting
			}
			if countdown[t]--; countdown[t] <= 0 {
				s.Unblock(t)
				continue
			}
			kept = append(kept, t)
		}
		polled = kept
	})
	s.SetExternalWaiters(func() bool { return len(polled) > 0 })
	return func(n int) {
		self := s.Current()
		countdown[self] = n
		polled = append(polled, self)
		s.Block()
	}
}

// orderChurn is the main scenario: workers of mixed priority churn through
// every scheduling primitive, picking the next one from the seeded stream.
func orderChurn(s *Sched, rng *sim.RNG) {
	const workers, steps = 12, 40
	mu := NewMutex(s)
	cond := NewCond(mu)
	var sleepers []*TCB // Blocked, waiting for a peer's Unblock
	pollWait := installOrderPoller(s)
	var all []*TCB
	allDone := func() bool {
		for _, t := range all {
			if t.State() != Done {
				return false
			}
		}
		return true
	}

	var worker func(depth int) func()
	worker = func(depth int) func() {
		return func() {
			self := s.Current()
			for i := 0; i < steps>>uint(2*depth); i++ {
				switch rng.Intn(12) {
				case 0, 1:
					s.Yield()
				case 2:
					func() {
						mu.Lock()
						defer mu.Unlock()
						s.Yield()
					}()
				case 3:
					func() {
						mu.Lock()
						defer func() {
							if mu.owner == self {
								mu.Unlock()
							}
						}()
						if rng.Intn(2) == 0 {
							cond.Wait()
						} else {
							cond.Signal()
						}
					}()
				case 4:
					sleepers = append(sleepers, self)
					self.SetOnCancel(func() { removeTCB(&sleepers, self) })
					s.Block()
					self.SetOnCancel(nil)
				case 5:
					if len(sleepers) > 0 {
						t := sleepers[0]
						sleepers = sleepers[1:]
						s.Unblock(t)
					}
				case 6:
					// Scheduler polls (PS): stay on the ready queue behind a
					// pending check that fails a few times.
					n := 1 + rng.Intn(3)
					self.Pending = func() bool { n--; return n <= 0 }
					s.Yield()
				case 7:
					// Scheduler polls (WQ): block until the hook's countdown.
					pollWait(1 + rng.Intn(4))
				case 8:
					all[rng.Intn(len(all))].SetPriority(rng.Intn(3))
				case 9:
					if rng.Intn(4) == 0 {
						s.Cancel(all[rng.Intn(len(all))])
					}
				case 10:
					if depth < 2 {
						c := s.SpawnWith("child", worker(depth+1), SpawnOpts{Priority: rng.Intn(3)})
						all = append(all, c)
						if rng.Intn(2) == 0 {
							s.Join(c)
						} else {
							c.Detach()
						}
					}
				case 11:
					if rng.Intn(8) == 0 {
						s.Exit(i)
					}
				}
			}
		}
	}
	for i := 0; i < workers; i++ {
		all = append(all, s.SpawnWith("w", worker(0), SpawnOpts{Priority: rng.Intn(3)}))
	}
	// Main keeps releasing whatever the workers left each other waiting on.
	for !allDone() {
		for len(sleepers) > 0 {
			t := sleepers[0]
			sleepers = sleepers[1:]
			s.Unblock(t)
		}
		cond.Broadcast()
		s.Yield()
	}
}

// orderKill has a thread kill the scheduler under spinners and a blocked
// joiner: the kill sweep, cancel unwinds and ErrKilled.
func orderKill(s *Sched, rng *sim.RNG) {
	var spin []*TCB
	for i := 0; i < 3; i++ {
		spin = append(spin, s.SpawnWith("spin", func() {
			for {
				s.Yield()
			}
		}, SpawnOpts{Priority: rng.Intn(2)}))
	}
	// As high as any spinner, or the spinners above it would starve it.
	s.SpawnWith("killer", func() {
		s.Yield()
		s.Yield()
		s.Kill()
	}, SpawnOpts{Priority: 1})
	s.Join(spin[0])
}

// orderDaemons ends with daemons still ready, blocked and never started, so
// the end-of-run reap unwinds each kind.
func orderDaemons(s *Sched, rng *sim.RNG) {
	s.SpawnWith("d-spin", func() {
		for {
			s.Yield()
		}
	}, SpawnOpts{Daemon: true})
	s.SpawnWith("d-block", func() { s.Block() }, SpawnOpts{Daemon: true})
	for i := 0; i < 1+rng.Intn(3); i++ {
		s.Yield()
	}
	s.SpawnWith("d-late", func() {}, SpawnOpts{Daemon: true, Priority: -1})
}

// orderIdle has every thread, main included, wait on the polling hook at
// once, so the scheduler idles and a lone blocked thread is woken by the hook
// it dispatched itself; main then spins alone through the no-switch yield.
func orderIdle(s *Sched, rng *sim.RNG) {
	pollWait := installOrderPoller(s)
	for i := 0; i < 3; i++ {
		s.Spawn("w", func() {
			for j := 0; j < 4; j++ {
				pollWait(1 + rng.Intn(5))
			}
		})
	}
	for j := 0; j < 8; j++ {
		pollWait(1 + rng.Intn(5))
	}
	for j := 0; j < 3; j++ {
		s.Yield()
	}
}

// orderDeadlock leaves two threads blocked with no wakeup source.
func orderDeadlock(s *Sched, _ *sim.RNG) {
	mu := NewMutex(s)
	mu.Lock()
	s.Spawn("stuck", func() { mu.Lock() })
	s.Block()
}

// TestSchedOrderPinned is the scheduler order proof: the churn's whole
// observable behaviour hashes to the value measured before the dispatch loop
// moved onto the yielding thread's goroutine.
func TestSchedOrderPinned(t *testing.T) {
	o := orderHasher{fnv.New64a()}
	o.runOrderScenario(t, "churn", nil, orderChurn)
	o.runOrderScenario(t, "kill", ErrKilled, orderKill)
	o.runOrderScenario(t, "daemons", nil, orderDaemons)
	o.runOrderScenario(t, "idle", nil, orderIdle)
	o.runOrderScenario(t, "deadlock", ErrDeadlock, orderDeadlock)
	if got := o.Sum64(); got != schedOrderHash {
		t.Fatalf("scheduler order hash = %#x, want %#x: the scheduling order or the sequence of charges moved", got, schedOrderHash)
	}
}
