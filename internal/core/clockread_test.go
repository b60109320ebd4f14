package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"chant/internal/comm"
	"chant/internal/comm/memnet"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

// countingHost is a real host whose clock reads and relaxes are counted.
type countingHost struct {
	machine.Host
	nows    atomic.Uint64
	relaxes atomic.Uint64
}

func (h *countingHost) Now() sim.Time {
	h.nows.Add(1)
	return h.Host.Now()
}

func (h *countingHost) Relax() {
	h.relaxes.Add(1)
	h.Host.Relax()
}

// clockReadsPerRoundTrip runs warm+rounds 64-byte memnet round trips between
// the main threads of two PEs, each on a counting RealHost, and reports the
// clock reads per timed round trip, both PEs together.
func clockReadsPerRoundTrip(t *testing.T, cfg Config, rounds int) float64 {
	t.Helper()
	const warm = 200
	net := memnet.New()
	topo := Topology{PEs: 2, ProcsPerPE: 1}
	var hosts [2]*countingHost
	var eps [2]*comm.Endpoint
	for pe := range hosts {
		hosts[pe] = &countingHost{Host: machine.NewRealHost(machine.Modern())}
		eps[pe] = net.NewEndpoint(comm.Addr{PE: int32(pe)}, hosts[pe], &trace.Counters{})
	}
	reads := func() uint64 { return hosts[0].nows.Load() + hosts[1].nows.Load() }
	var before, after uint64
	echo := func(peer GlobalID, first bool) MainFunc {
		return func(th *Thread) {
			buf := make([]byte, 64)
			for i := 0; i < warm+rounds; i++ {
				if first && i == warm {
					before = reads()
				}
				if first {
					if err := th.Send(peer, 1, buf); err != nil {
						t.Error(err)
						return
					}
				}
				if _, _, err := th.Recv(peer, 1, buf); err != nil {
					t.Error(err)
					return
				}
				if !first {
					if err := th.Send(peer, 1, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if first {
				after = reads()
			}
		}
	}
	mains := [2]MainFunc{echo(gid(1, 0, 0), true), echo(gid(0, 0, 0), false)}
	var wg sync.WaitGroup
	var errs [2]error
	for pe := range mains {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			rt := NewDistRuntime(topo, cfg, machine.Modern())
			_, errs[pe] = rt.RunOne(comm.Addr{PE: int32(pe)}, eps[pe], mains[pe])
		}(pe)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return float64(after-before) / float64(rounds)
}

// TestClockReadBudget holds the real-mode message path to the clock reads
// that have a consumer, with the tracer off: per message at most a queued
// send's SentAt (checkpoints read it), a completion stamp (the waiting-thread
// integral reads it) and the begin of a wait. That is at most 6 reads per
// round trip; a read that fed nothing used to bring it to 8 or more.
func TestClockReadBudget(t *testing.T) {
	const rounds = 10000
	for _, pol := range []PolicyKind{ThreadPolls, SchedulerPollsPS, SchedulerPollsWQ} {
		for _, server := range []bool{false, true} {
			cfg := Config{Policy: pol, DisableServer: !server}
			t.Run(fmt.Sprintf("%v/server=%v", pol, server), func(t *testing.T) {
				got := clockReadsPerRoundTrip(t, cfg, rounds)
				t.Logf("%.2f clock reads per round trip", got)
				if got > 6 {
					t.Errorf("%.2f clock reads per round trip, budget 6 (3 per message)", got)
				}
			})
		}
	}

	// A receive born complete at post is stamped only when a tracer is
	// attached; SpanMatch, its only reader, must still get a real begin.
	t.Run("traced", func(t *testing.T) {
		const selfSends = 100
		tr := trace.NewFlightTracer(1, 0)
		rt := NewRealRuntime(Topology{PEs: 1, ProcsPerPE: 1},
			Config{Policy: SchedulerPollsPS, DisableServer: true, Tracer: tr}, machine.Modern())
		res, err := rt.Run(map[comm.Addr]MainFunc{{}: func(th *Thread) {
			buf := make([]byte, 8)
			for i := 0; i < selfSends; i++ {
				if err := th.Send(th.ID(), 1, buf); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := th.Recv(th.ID(), 1, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Total.RecvImmediate; got < selfSends {
			t.Fatalf("%d receives born complete, want >= %d", got, selfSends)
		}
		matches := 0
		for _, s := range tr.Snapshot() {
			if s.Kind != trace.SpanMatch {
				continue
			}
			matches++
			if s.Begin == 0 || s.Begin > s.End {
				t.Errorf("SpanMatch [%d, %d]: want a non-zero begin no later than its end", s.Begin, s.End)
			}
		}
		if matches < selfSends {
			t.Errorf("%d SpanMatch spans, want >= %d", matches, selfSends)
		}
	})
}
