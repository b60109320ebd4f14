package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"chant/internal/comm"
	"chant/internal/core"
)

// Event-count invariance witnesses. The constant-time hot paths (indexed
// ready queue, bucketed mailbox, ready-list polling, allocation pooling) are
// pure mechanism: they must not change WHAT the simulation computes, only
// how fast the real clock gets there. These goldens were captured from the
// seed's linear implementations; every row and hash below must stay
// bit-identical forever. A divergence means a hot-path "optimization" (or
// any later change) silently altered scheduling or matching order.

type pollingGolden struct {
	policy  core.PolicyKind
	alpha   int64
	ctxSw   uint64
	partial uint64
	msgTest uint64
	fails   uint64
	testAny uint64
	timeMS  float64
}

var pollingGoldens = []pollingGolden{
	{core.ThreadPolls, 1000, 560, 0, 1031, 549, 0, 99.565000},
	{core.ThreadPolls, 100000, 84, 0, 557, 75, 0, 964.031800},
	{core.SchedulerPollsPS, 1000, 502, 551, 551, 69, 0, 73.162000},
	{core.SchedulerPollsPS, 100000, 84, 77, 77, 15, 0, 957.857800},
	{core.SchedulerPollsWQ, 1000, 502, 0, 1453, 971, 0, 125.205000},
	{core.SchedulerPollsWQ, 100000, 92, 0, 997, 515, 0, 991.105800},
	{core.SchedulerPollsWQAny, 1000, 504, 0, 482, 482, 496, 109.605000},
	{core.SchedulerPollsWQAny, 100000, 92, 0, 482, 62, 100, 967.765800},
}

// hashChaos folds one chaos run's complete observable behaviour — final
// virtual clock, counters, fault record, and every per-process event stream
// in deterministic address order — into one FNV-1a word. The counters enter
// as Snapshot's %+v text, so adding a counter field (even one that stays
// zero here) re-pins the goldens; the individual figures in the error
// message distinguish a real behaviour change from such a re-pin.
func hashChaos(r ChaosResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "time=%.6f total=%+v faults=%+v\n", r.TimeMS, r.Total, r.Faults)
	for _, ev := range r.FaultEvents {
		fmt.Fprintf(h, "fault %+v\n", ev)
	}
	addrs := make([]comm.Addr, 0, len(r.Events))
	for a := range r.Events {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].PE != addrs[j].PE {
			return addrs[i].PE < addrs[j].PE
		}
		return addrs[i].Proc < addrs[j].Proc
	})
	for _, a := range addrs {
		for _, ev := range r.Events[a] {
			fmt.Fprintf(h, "%v %+v\n", a, ev)
		}
	}
	return h.Sum64()
}

// TestPollingEventInvariance pins every polling policy's context-switch,
// partial-switch, msgtest, and virtual-time figures (the inputs to the
// paper's Tables 2–5 and Figures 8–13) to the pre-optimization goldens.
func TestPollingEventInvariance(t *testing.T) {
	base := PollingConfig{Workers: 8, Iters: 30, MsgSize: 1024, Shift: 1}
	for _, g := range pollingGoldens {
		cfg := base
		cfg.Policy = g.policy
		cfg.Alpha = g.alpha
		cfg.Beta = 100
		row := RunPolling(cfg)
		if row.CtxSw != g.ctxSw || row.PartialSw != g.partial ||
			row.MsgTest != g.msgTest || row.MsgTestFails != g.fails ||
			row.TestAnyCalls != g.testAny || row.TimeMS != g.timeMS {
			t.Errorf("%s alpha=%d diverged from golden:\n got ctxsw=%d partial=%d msgtest=%d fails=%d testany=%d time=%.6f\nwant ctxsw=%d partial=%d msgtest=%d fails=%d testany=%d time=%.6f",
				g.policy, g.alpha,
				row.CtxSw, row.PartialSw, row.MsgTest, row.MsgTestFails, row.TestAnyCalls, row.TimeMS,
				g.ctxSw, g.partial, g.msgTest, g.fails, g.testAny, g.timeMS)
		}
	}
}

// TestChaosEventInvariance pins the complete fault-injection event streams
// (default and SchedulerPollsWQ policies) to the pre-optimization hashes:
// every send, retry, fault, and observation must replay byte-identically.
func TestChaosEventInvariance(t *testing.T) {
	r, err := RunChaos(ChaosConfig{Workers: 4, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Re-pinned (from 0xae1d6a6af03a0108 / 0x1f652a152330d9b0) when crash
	// recovery extended the RSR request envelope with the sender's epoch
	// (rsrHeaderLen 13 -> 17): every request frame is four bytes longer, so
	// simulated message latencies — and with them the whole event stream —
	// shift. The recovery counters added to trace.Snapshot also enter the
	// hash text (all zero in this faults-only soak).
	if got := hashChaos(r); got != 0x64aefb9bc7bc6787 {
		t.Errorf("chaos stream hash = %#x, want 0x64aefb9bc7bc6787 (time=%.6f sends=%d retries=%d faultevents=%d)",
			got, r.TimeMS, r.Total.Sends, r.Total.RSRRetries, len(r.FaultEvents))
	}
	rwq, err := RunChaos(ChaosConfig{Workers: 4, Iters: 10, Policy: core.SchedulerPollsWQ})
	if err != nil {
		t.Fatal(err)
	}
	if got := hashChaos(rwq); got != 0x3285942fa943b5a4 {
		t.Errorf("chaos-wq stream hash = %#x, want 0x3285942fa943b5a4 (time=%.6f sends=%d retries=%d faultevents=%d)",
			got, rwq.TimeMS, rwq.Total.Sends, rwq.Total.RSRRetries, len(rwq.FaultEvents))
	}
}
