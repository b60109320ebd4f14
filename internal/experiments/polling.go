package experiments

import (
	"slices"
	"strconv"
	"sync"

	"chant/internal/check"
	"chant/internal/comm"
	"chant/internal/core"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
)

// PollingConfig parameterizes the Section 4.2 scheduling experiment: two
// processing elements, Workers threads per PE, each running Iters
// iterations of the Figure-9 loop
//
//	compute(alpha); send(); compute(beta); recv();
//
// Thread w sends to thread (w+Shift) mod Workers on the other PE and
// receives from thread (w-Shift) mod Workers. The shift offsets each pair's
// position in the two ready queues, de-synchronizing the PEs the way real
// startup skew did on the Paragon; Shift=0 runs the perfectly symmetric
// (lockstep) version. JitterPct adds deterministic, seeded variance to the
// compute phases.
type PollingConfig struct {
	Workers   int
	Iters     int
	Alpha     int64
	Beta      int64
	MsgSize   int
	Shift     int32
	JitterPct int64
	Seed      uint64
	Policy    core.PolicyKind
	Model     *machine.Model

	// Shards is ignored; the sequential kernel always runs. It survives only
	// because the frozen benchmark/ still sets it: delete at the next
	// benchmark thaw.
	Shards int

	// Tracer, when non-nil, records spans from every layer of the run
	// (scheduler occupancy, sends, matches, RSR) for Perfetto export. Nil
	// costs one pointer compare per emission site.
	Tracer *trace.Tracer
}

func (c PollingConfig) withDefaults() PollingConfig {
	if c.Workers == 0 {
		c.Workers = 12
	}
	if c.Iters == 0 {
		c.Iters = 100
	}
	if c.MsgSize == 0 {
		c.MsgSize = 4096
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.Model == nil {
		c.Model = machine.Paragon1994()
	}
	return c
}

// PollingRow is one measured cell of Tables 3-5: the columns the paper
// reports (Time, CtxSw, msgtest) plus the extra observability our runtime
// provides (partial switches, failed tests, Figure-13 average and peak
// waiting).
type PollingRow struct {
	Policy       core.PolicyKind
	Alpha        int64
	Beta         int64
	TimeMS       float64
	CtxSw        uint64
	MsgTest      uint64
	PartialSw    uint64
	MsgTestFails uint64
	TestAnyCalls uint64
	AvgWaiting   float64
	MaxWaiting   int
}

// RunPolling executes one cell of the polling experiment.
func RunPolling(cfg PollingConfig) PollingRow {
	cfg = cfg.withDefaults()
	rt := core.NewSimRuntime(core.Topology{PEs: 2, ProcsPerPE: 1},
		core.Config{Policy: cfg.Policy, Delivery: core.DeliverCtx, DisableServer: true,
			Tracer: cfg.Tracer},
		cfg.Model)
	workers := int32(cfg.Workers)
	size := cfg.MsgSize
	pooled := takeSlab(2 * cfg.Workers * 2 * size)
	slab := *pooled
	mk := func(pe int32) core.MainFunc {
		return func(t *core.Thread) {
			var ws []*core.Thread
			for w := int32(0); w < workers; w++ {
				w := w
				at := (int(pe)*cfg.Workers + int(w)) * 2 * size
				out := slab[at : at+size : at+size]
				buf := slab[at+size : at+2*size : at+2*size]
				ws = append(ws, t.Process().CreateLocal("w"+strconv.Itoa(int(w)), func(me *core.Thread) {
					rng := sim.NewRNG(cfg.Seed + uint64(pe)*1009 + uint64(w) + 1)
					jitter := func(n int64) int64 {
						if cfg.JitterPct == 0 || n == 0 {
							return n
						}
						span := n * cfg.JitterPct / 100
						if span < 2 {
							span = 2
						}
						return n - span/2 + int64(rng.Uint64()%uint64(span+1))
					}
					// Worker local ids start at 1 (main is 0).
					sendTo := core.GlobalID{PE: 1 - pe, Proc: 0, Thread: (w+cfg.Shift)%workers + 1}
					recvFrom := core.GlobalID{PE: 1 - pe, Proc: 0, Thread: (w-cfg.Shift+workers)%workers + 1}
					host := me.Process().Endpoint().Host()
					for i := 0; i < cfg.Iters; i++ {
						host.Compute(jitter(cfg.Alpha))
						if err := me.Send(sendTo, 1, out); err != nil {
							panic(err)
						}
						host.Compute(jitter(cfg.Beta))
						if _, _, err := me.Recv(recvFrom, 1, buf); err != nil {
							panic(err)
						}
					}
				}, defaultSpawnOpts()))
			}
			for _, w := range ws {
				if _, err := t.JoinLocal(w); err != nil {
					panic(err)
				}
			}
		}
	}
	res, err := rt.Run(map[comm.Addr]core.MainFunc{
		{PE: 0, Proc: 0}: mk(0),
		{PE: 1, Proc: 0}: mk(1),
	})
	if err != nil {
		panic("experiments: polling run: " + err.Error())
	}
	keepSlab(pooled)
	return PollingRow{
		Policy:       cfg.Policy,
		Alpha:        cfg.Alpha,
		Beta:         cfg.Beta,
		TimeMS:       res.VirtualEnd.Millis(),
		CtxSw:        res.Total.FullSwitches,
		MsgTest:      res.Total.MsgTestCalls,
		PartialSw:    res.Total.PartialSwitches,
		MsgTestFails: res.Total.MsgTestFails,
		TestAnyCalls: res.Total.TestAnyCalls,
		AvgWaiting:   res.Total.AvgWaiting,
		MaxWaiting:   res.Total.MaxWaiting,
	}
}

// cellSlabs recycles the message buffers of finished cells. A cell's
// 2 x Workers x 2 buffers (each thread's send and receive buffer) are carved
// from one slab; allocating them afresh, 4 KiB apiece, was most of a
// Table-3 cell's allocated bytes. Every byte of a slab stays zero — senders
// never write theirs and receivers only receive those zeros — so a reused
// slab is indistinguishable from a new one, and which one a cell gets
// cannot reach an event.
var cellSlabs sync.Pool

// takeSlab returns a zeroed slab of n bytes, a pooled one if it is big
// enough.
func takeSlab(n int) *[]byte {
	//chant:allow-nondet every pooled slab is all zeros: which one comes back is invisible
	b, _ := cellSlabs.Get().(*[]byte)
	if b == nil || cap(*b) < n {
		b = new([]byte)
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

// keepSlab returns a finished cell's slab to the pool.
func keepSlab(b *[]byte) {
	if check.Enabled && slices.ContainsFunc(*b, func(c byte) bool { return c != 0 }) {
		check.Failf("experiments: a polling cell wrote into its message buffers; its slab cannot be reused")
	}
	//chant:allow-nondet the slab is all zeros and has no other holder
	cellSlabs.Put(b)
}

// PollingSweep holds one full polling table: rows for every (policy, alpha)
// pair at a fixed beta.
type PollingSweep struct {
	Beta     int64
	Alphas   []int64
	Policies []core.PolicyKind
	// Rows indexed [policy][alphaIdx].
	Rows map[core.PolicyKind][]PollingRow
}

// StandardPolicies are the three algorithms of Tables 3-5.
var StandardPolicies = []core.PolicyKind{
	core.ThreadPolls, core.SchedulerPollsPS, core.SchedulerPollsWQ,
}

// RunPollingSweep reproduces one of Tables 3-5 (pick beta: 100, 1000, 0)
// together with the corresponding figures' series.
func RunPollingSweep(beta int64, policies []core.PolicyKind, base PollingConfig) PollingSweep {
	if policies == nil {
		policies = StandardPolicies
	}
	sweep := PollingSweep{
		Beta:     beta,
		Alphas:   PollingAlphas,
		Policies: policies,
		Rows:     make(map[core.PolicyKind][]PollingRow),
	}
	for _, pol := range policies {
		for _, alpha := range PollingAlphas {
			cfg := base
			cfg.Policy = pol
			cfg.Alpha = alpha
			cfg.Beta = beta
			sweep.Rows[pol] = append(sweep.Rows[pol], RunPolling(cfg))
		}
	}
	return sweep
}

// StandardPollingBase is the canonical workload parameterization used for
// the headline reproduction: 12 threads per PE, 100 iterations, 4 KiB
// messages, shift-1 pairing, deterministic compute.
var StandardPollingBase = PollingConfig{
	Workers: 12,
	Iters:   100,
	MsgSize: 4096,
	Shift:   1,
}
