package core

import (
	"testing"

	"chant/internal/comm"
	"chant/internal/comm/memnet"
	"chant/internal/machine"
	"chant/internal/trace"
)

// TestWQWalkPollsWithoutRelax pins the Scheduler-polls (WQ) walk on a real
// host: one scheduling point over n outstanding receives with nothing
// arrived is n msgtests, n misses and no Relax. A relax per miss would
// offer the OS processor once per blocked thread at every scheduling point.
func TestWQWalkPollsWithoutRelax(t *testing.T) {
	const n = 8
	host := &countingHost{Host: machine.NewRealHost(machine.Modern())}
	ctrs := &trace.Counters{}
	ep := memnet.New().NewEndpoint(comm.Addr{}, host, ctrs)
	rt := NewDistRuntime(Topology{PEs: 1, ProcsPerPE: 1},
		Config{Policy: SchedulerPollsWQ, DisableServer: true}, machine.Modern())
	_, err := rt.RunOne(comm.Addr{}, ep, func(th *Thread) {
		waiters := make([]*Thread, n)
		for i := range waiters {
			waiters[i] = th.proc.CreateLocal("waiter", func(me *Thread) {
				me.Recv(th.ID(), 9, make([]byte, 8)) // nothing is ever sent
			}, defaultSpawn())
		}
		th.Yield() // every waiter misses its first Test and blocks
		p := th.proc.policy.(*wqPolicy)
		if p.count != n {
			t.Errorf("%d outstanding requests, want %d", p.count, n)
			return
		}
		calls, fails, relaxes := ctrs.MsgTestCalls.Load(), ctrs.MsgTestFails.Load(), host.relaxes.Load()
		p.preSchedule()
		if got := ctrs.MsgTestCalls.Load() - calls; got != n {
			t.Errorf("%d msgtest calls at one scheduling point, want %d", got, n)
		}
		if got := ctrs.MsgTestFails.Load() - fails; got != n {
			t.Errorf("%d msgtest misses at one scheduling point, want %d", got, n)
		}
		if got := host.relaxes.Load() - relaxes; got != 0 {
			t.Errorf("%d Relax calls at one scheduling point, want 0", got)
		}
		for _, w := range waiters {
			th.CancelLocal(w)
			th.JoinLocal(w)
		}
		if posted, _ := ep.QueueDepths(); posted != 0 || p.count != 0 {
			t.Errorf("after cancel: %d posted, %d outstanding; want 0, 0", posted, p.count)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitRelaxRule pins where a blocking receive offers the OS processor
// now that a send does not: a wait on an incomplete receive relaxes before
// its thread gives up its turn — once, under every policy here. Thread
// polls and WQ relax through the missed Test their Waits open with;
// Scheduler polls (PS) relaxes once on entry, and its partial switches
// add none once the message is in. A receive complete when posted relaxes
// nowhere, and neither does the send that completed it.
func TestWaitRelaxRule(t *testing.T) {
	for _, pol := range []PolicyKind{ThreadPolls, SchedulerPollsPS, SchedulerPollsWQ} {
		t.Run(pol.String(), func(t *testing.T) {
			host := &countingHost{Host: machine.NewRealHost(machine.Modern())}
			ep := memnet.New().NewEndpoint(comm.Addr{}, host, &trace.Counters{})
			rt := NewDistRuntime(Topology{PEs: 1, ProcsPerPE: 1},
				Config{Policy: pol, DisableServer: true}, machine.Modern())
			_, err := rt.RunOne(comm.Addr{}, ep, func(th *Thread) {
				buf := make([]byte, 8)
				before := host.relaxes.Load()
				if err := th.Send(th.ID(), 1, buf); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := th.Recv(th.ID(), 1, buf); err != nil {
					t.Error(err)
					return
				}
				if got := host.relaxes.Load() - before; got != 0 {
					t.Errorf("send and a receive complete when posted: %d Relax calls, want 0", got)
				}

				// The sender runs only once the waiter has given up its turn.
				var atTurn uint64
				sender := th.proc.CreateLocal("sender", func(me *Thread) {
					atTurn = host.relaxes.Load()
					if err := me.Send(th.ID(), 2, buf[:1]); err != nil {
						t.Error(err)
					}
				}, defaultSpawn())
				before = host.relaxes.Load()
				if _, _, err := th.Recv(sender.ID(), 2, buf); err != nil {
					t.Error(err)
					return
				}
				after := host.relaxes.Load()
				th.JoinLocal(sender)
				if got := atTurn - before; got != 1 {
					t.Errorf("wait on an incomplete receive: %d Relax calls before the thread gave up its turn, want 1", got)
				}
				if got := after - before; got != 1 {
					t.Errorf("wait on an incomplete receive: %d Relax calls in all, want 1", got)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
