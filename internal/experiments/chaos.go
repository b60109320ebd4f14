package experiments

import (
	"fmt"

	"chant/internal/comm"
	"chant/internal/core"
	"chant/internal/faults"
	"chant/internal/machine"
	"chant/internal/recovery"
	"chant/internal/sim"
	"chant/internal/trace"
)

// chaosEchoHandler is the RSR handler id the chaos workload calls: it
// echoes the request payload back, so every iteration is one full
// request/reply round trip through the retry layer.
const chaosEchoHandler int32 = 100

// ChaosConfig parameterizes the chaos soak: the Table 3 workload shape —
// two PEs of workers alternating compute and communication — rebuilt on
// the remote-service-request retry layer and run over a simulated network
// that drops, duplicates, and delays messages according to a seeded fault
// plan. The soak demonstrates the robustness claim: the workload completes
// under injected faults, and identically so for a fixed fault seed.
type ChaosConfig struct {
	Workers int
	Iters   int
	Alpha   int64
	Beta    int64
	MsgSize int

	// Fault plan: uniform rates on every cross-PE link.
	DropProb  float64
	DupProb   float64
	DelayProb float64
	DelayMax  sim.Duration
	FaultSeed uint64

	// Retry layer.
	RSRTimeout sim.Duration
	RSRRetries int
	RSRBackoff sim.Duration
	TermGrace  sim.Duration

	Policy core.PolicyKind
	Model  *machine.Model

	// Pairs replicates the two-PE soak across independent PE pairs (PE 2p
	// calls PE 2p+1 and back), scaling the topology to 2*Pairs simulated
	// PEs. Default 1: the standard two-PE soak.
	Pairs int

	// Recovery extension (enabled by CrashAt > 0): CrashPE crashes at
	// CrashAt and restarts RestartAfter later from the coordinated
	// checkpoint that PE0's first worker initiates at its CheckpointIter-th
	// iteration; surviving workers wait out the outage for up to RejoinWait
	// per call instead of failing. The soak then exercises the whole
	// recovery path — marker flood, capture, in-flight logging, restore,
	// rejoin, epoch-aware dedup — under the same lossy network.
	CrashPE        int32
	CrashAt        sim.Time
	RestartAfter   sim.Duration
	RejoinWait     sim.Duration
	CheckpointIter int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Workers == 0 {
		c.Workers = 6
	}
	if c.Pairs == 0 {
		c.Pairs = 1
	}
	if c.Iters == 0 {
		c.Iters = 20
	}
	if c.Alpha == 0 {
		c.Alpha = 200
	}
	if c.Beta == 0 {
		c.Beta = 100
	}
	if c.MsgSize == 0 {
		c.MsgSize = 256
	}
	if c.DropProb == 0 {
		c.DropProb = 0.05
	}
	if c.DupProb == 0 {
		c.DupProb = 0.02
	}
	if c.DelayProb == 0 {
		c.DelayProb = 0.10
	}
	if c.DelayMax == 0 {
		c.DelayMax = 500 * sim.Microsecond
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = 0xC0FFEE
	}
	if c.RSRTimeout == 0 {
		c.RSRTimeout = 10 * sim.Millisecond
	}
	if c.RSRRetries == 0 {
		c.RSRRetries = 12
	}
	if c.RSRBackoff == 0 {
		c.RSRBackoff = 100 * sim.Microsecond
	}
	if c.TermGrace == 0 {
		c.TermGrace = 10 * sim.Millisecond
	}
	if c.Model == nil {
		c.Model = machine.Paragon1994()
	}
	if c.CrashAt > 0 {
		if c.RestartAfter == 0 {
			c.RestartAfter = 10 * sim.Millisecond
		}
		if c.RejoinWait == 0 {
			c.RejoinWait = 200 * sim.Millisecond
		}
		if c.CheckpointIter == 0 {
			c.CheckpointIter = c.Iters / 4
		}
	}
	return c
}

// ChaosResult is everything one chaos run observed — enough to both assert
// completion under faults and compare two runs bit for bit.
type ChaosResult struct {
	TimeMS float64
	Total  trace.Snapshot
	// Faults is the injection plan's own accounting.
	Faults faults.Stats
	// FaultEvents is the ordered stream of injected fault decisions — the
	// determinism witness for the fault plane itself.
	FaultEvents []faults.Event
	// Events is each process's scheduler event stream.
	Events map[comm.Addr][]trace.Event
}

// RunChaos executes the chaos soak once and reports what happened.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	fcfg := faults.Config{
		Default: faults.LinkRates{
			DropProb:  cfg.DropProb,
			DupProb:   cfg.DupProb,
			DelayProb: cfg.DelayProb,
			DelayMax:  cfg.DelayMax,
		},
	}
	if cfg.CrashAt > 0 {
		fcfg.Crashes = []faults.Crash{{PE: cfg.CrashPE, At: cfg.CrashAt, RestartAfter: cfg.RestartAfter}}
	}
	plan := faults.New(fcfg, cfg.FaultSeed)

	topo := core.Topology{PEs: 2 * cfg.Pairs, ProcsPerPE: 1}
	ccfg := core.Config{
		Policy:        cfg.Policy,
		Delivery:      core.DeliverCtx,
		EventLogSize:  1 << 15,
		RSRTimeout:    cfg.RSRTimeout,
		RSRRetries:    cfg.RSRRetries,
		RSRBackoff:    cfg.RSRBackoff,
		TermGrace:     cfg.TermGrace,
		MaxUnexpected: 1024,
		Faults:        plan,
	}
	if cfg.CrashAt > 0 {
		ccfg.CheckpointStore = recovery.NewMemStore()
		ccfg.RejoinWait = cfg.RejoinWait
	}
	rt := core.NewSimRuntime(topo, ccfg, cfg.Model)
	rt.RegisterHandler(chaosEchoHandler, func(ctx *core.RSRContext) ([]byte, error) {
		return ctx.Req, nil
	})

	workers := cfg.Workers
	mk := func(pe int32) core.MainFunc {
		return func(t *core.Thread) {
			// The peer is the pair partner: PE 2p+1 for 2p and vice versa.
			peer := comm.Addr{PE: pe ^ 1, Proc: 0}
			var ws []*core.Thread
			for w := 0; w < workers; w++ {
				w := w
				ws = append(ws, t.Process().CreateLocal(fmt.Sprintf("w%d", w), func(me *core.Thread) {
					host := me.Process().Endpoint().Host()
					req := make([]byte, cfg.MsgSize)
					reply := make([]byte, cfg.MsgSize)
					for i := 0; i < cfg.Iters; i++ {
						host.Compute(cfg.Alpha)
						if cfg.CrashAt > 0 && pe == 0 && w == 0 && i == cfg.CheckpointIter {
							// The recovery soak's coordinated snapshot: one
							// initiator, machine-wide marker flood, every
							// process archives its checkpoint mid-workload.
							if err := me.Checkpoint(); err != nil {
								panic(fmt.Sprintf("chaos: checkpoint: %v", err))
							}
						}
						req[0] = byte(w)
						req[1] = byte(i)
						n, err := me.Call(peer, chaosEchoHandler, req, reply)
						if err != nil {
							panic(fmt.Sprintf("chaos: pe%d w%d iter %d: %v", pe, w, i, err))
						}
						if n != cfg.MsgSize || reply[0] != byte(w) || reply[1] != byte(i) {
							panic(fmt.Sprintf("chaos: pe%d w%d iter %d: corrupted echo (%d bytes)", pe, w, i, n))
						}
						host.Compute(cfg.Beta)
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
	mains := make(map[comm.Addr]core.MainFunc, 2*cfg.Pairs)
	for pe := int32(0); pe < int32(2*cfg.Pairs); pe++ {
		mains[comm.Addr{PE: pe, Proc: 0}] = mk(pe)
	}
	res, err := rt.Run(mains)
	if err != nil {
		return ChaosResult{}, err
	}
	out := ChaosResult{
		TimeMS:      res.VirtualEnd.Millis(),
		Total:       res.Total,
		Faults:      plan.Stats(),
		FaultEvents: plan.Events(),
		Events:      make(map[comm.Addr][]trace.Event),
	}
	for _, a := range topo.Addrs() {
		out.Events[a] = rt.Process(a).EventLog().Snapshot()
	}
	return out, nil
}
