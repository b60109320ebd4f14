// Recovery cost measurements: what the crash-recovery subsystem costs when
// nothing crashes (coordinated-snapshot markers riding the normal RSR
// traffic), what a checkpoint capture costs, and how long a restarted PE
// takes from its restart instant to a completed rejoin handshake. Every
// figure is simulated, so deterministic (the same virtual clocks the
// invariance tests pin); the codec's wall-clock cost is measured by the
// benchmark's recovery.encode_ns/decode_ns.
package experiments

import (
	"fmt"

	"chant/internal/comm"
	"chant/internal/core"
	"chant/internal/faults"
	"chant/internal/machine"
	"chant/internal/recovery"
	"chant/internal/sim"
)

// RecoveryResult is the row of the recovery experiment: a two-PE echo
// workload, 4 workers per PE, 20 iterations each.
type RecoveryResult struct {
	// Steady-state marker overhead: the same workload with and without one
	// machine-wide coordinated checkpoint, no crash.
	BaselineVirtualMS   float64
	CheckpointVirtualMS float64
	MarkerOverheadPct   float64

	// Capture cost: virtual time the initiating thread spends inside
	// Checkpoint() — marker flood, in-flight recording, capture, archive —
	// and the byte size of the archived checkpoints.
	CaptureVirtualUS   float64
	CheckpointBytesPE0 int
	CheckpointBytesPE1 int

	// Restart-to-rejoin latency: virtual time from the crashed PE's restart
	// instant (crash time + restart delay) until its rejoin handshake
	// completed (Process.RejoinedAt), and the whole-run cost of the outage.
	RejoinLatencyVirtualUS float64
	CrashRunVirtualMS      float64
	RestartEpoch           uint32
}

// recoveryBenchRun executes the two-PE echo workload once. With checkpoint
// set, worker 0 initiates a coordinated snapshot mid-workload; with crash
// set, PE1 additionally crashes after the snapshot and restarts from it.
func recoveryBenchRun(checkpoint, crash bool) (res *core.Result, store *recovery.MemStore, captureUS float64, rt *core.Runtime, err error) {
	const (
		workers = 4
		iters   = 20
		handler = int32(9)
		crashAt = sim.Time(40 * sim.Millisecond)
		restart = 10 * sim.Millisecond
	)
	fcfg := faults.Config{}
	if crash {
		fcfg.Crashes = []faults.Crash{{PE: 1, At: crashAt, RestartAfter: restart}}
	}
	plan := faults.New(fcfg, 1)
	store = recovery.NewMemStore()
	ccfg := core.Config{
		Delivery:   core.DeliverCtx,
		RSRTimeout: 10 * sim.Millisecond,
		RSRRetries: 8,
		RSRBackoff: 100 * sim.Microsecond,
		TermGrace:  10 * sim.Millisecond,
		Faults:     plan,
	}
	if checkpoint {
		ccfg.CheckpointStore = store
		ccfg.RejoinWait = 300 * sim.Millisecond
	}
	rt = core.NewSimRuntime(core.Topology{PEs: 2, ProcsPerPE: 1}, ccfg, machine.Paragon1994())
	rt.RegisterHandler(handler, func(ctx *core.RSRContext) ([]byte, error) {
		return ctx.Req, nil
	})
	mk := func(pe int32) core.MainFunc {
		return func(t *core.Thread) {
			peer := comm.Addr{PE: pe ^ 1, Proc: 0}
			var ws []*core.Thread
			for w := 0; w < workers; w++ {
				w := w
				ws = append(ws, t.Process().CreateLocal(fmt.Sprintf("rb%d", w), func(me *core.Thread) {
					host := me.Process().Endpoint().Host()
					req := make([]byte, 256)
					reply := make([]byte, 256)
					for i := 0; i < iters; i++ {
						host.Compute(500)
						if checkpoint && pe == 0 && w == 0 && i == iters/4 {
							t0 := host.Now()
							if err := me.Checkpoint(); err != nil {
								panic(err)
							}
							captureUS = host.Now().Sub(t0).Micros()
						}
						req[0], req[1] = byte(w), byte(i)
						if _, err := me.Call(peer, handler, req, reply); err != nil {
							panic(err)
						}
						host.Compute(200)
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
	mains := map[comm.Addr]core.MainFunc{
		{PE: 0, Proc: 0}: mk(0),
		{PE: 1, Proc: 0}: mk(1),
	}
	res, err = rt.Run(mains)
	return res, store, captureUS, rt, err
}

// RunRecovery runs the recovery experiment: a baseline run, a run with one
// coordinated checkpoint, and a run where PE1 crashes and restarts from it.
func RunRecovery() RecoveryResult {
	var out RecoveryResult

	base, _, _, _, err := recoveryBenchRun(false, false)
	if err != nil {
		panic(err)
	}
	out.BaselineVirtualMS = base.VirtualEnd.Millis()

	ck, store, captureUS, _, err := recoveryBenchRun(true, false)
	if err != nil {
		panic(err)
	}
	out.CheckpointVirtualMS = ck.VirtualEnd.Millis()
	out.MarkerOverheadPct = 100 * (out.CheckpointVirtualMS - out.BaselineVirtualMS) / out.BaselineVirtualMS
	out.CaptureVirtualUS = captureUS
	for pe := int32(0); pe < 2; pe++ {
		cp, _, err := store.Latest(comm.Addr{PE: pe, Proc: 0})
		if err != nil {
			panic(err)
		}
		n := len(recovery.Encode(cp))
		if pe == 0 {
			out.CheckpointBytesPE0 = n
		} else {
			out.CheckpointBytesPE1 = n
		}
	}

	cr, _, _, rt, err := recoveryBenchRun(true, true)
	if err != nil {
		panic(err)
	}
	out.CrashRunVirtualMS = cr.VirtualEnd.Millis()
	p1 := rt.Process(comm.Addr{PE: 1, Proc: 0})
	restartAt := sim.Time(40*sim.Millisecond + 10*sim.Millisecond)
	out.RejoinLatencyVirtualUS = p1.RejoinedAt().Sub(restartAt).Micros()
	out.RestartEpoch = p1.Epoch()
	return out
}
