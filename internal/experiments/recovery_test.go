package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"chant/internal/comm"
	"chant/internal/core"
	"chant/internal/faults"
	"chant/internal/machine"
	"chant/internal/recovery"
	"chant/internal/sim"
)

// recoverySoakConfig is the crash-recovery extension of the pinned chaos
// soak: four PEs (two pairs) under the lossy network, a machine-wide
// coordinated checkpoint mid-workload, PE1 crashed and restarted from it,
// surviving callers waiting out the outage.
func recoverySoakConfig() ChaosConfig {
	return ChaosConfig{
		Workers:        4,
		Iters:          10,
		Pairs:          2,
		CrashPE:        1,
		CrashAt:        sim.Time(30 * sim.Millisecond),
		RestartAfter:   10 * sim.Millisecond,
		RejoinWait:     300 * sim.Millisecond,
		CheckpointIter: 2,
	}
}

// recoverySoakHash is hashChaos(RunChaos(recoverySoakConfig())), virtual
// end time 74.244460 ms. It is a constant, not the first run's value, so a
// change that moves the recovery stream fails here instead of only agreeing
// with itself. Re-pin only for a deliberate behaviour change, and say why.
const recoverySoakHash uint64 = 0x96c349451e46fa90

// TestChaosRecoverySoak runs the crash+recover chaos soak three times:
// every run must complete (all surviving calls succeed through the outage),
// actually exercise the recovery path, and produce the pinned behaviour
// hash — checkpoint capture, restart, rejoin, and replay are as
// deterministic as the rest of the simulator.
func TestChaosRecoverySoak(t *testing.T) {
	for run := 0; run < 3; run++ {
		r, err := RunChaos(recoverySoakConfig())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if r.Total.Restarts != 1 {
			t.Fatalf("run %d: Restarts = %d, want 1", run, r.Total.Restarts)
		}
		if r.Total.Checkpoints == 0 || r.Total.RejoinsServed == 0 || r.Total.PeersRecovered == 0 {
			t.Fatalf("run %d: recovery path not exercised: checkpoints=%d rejoins=%d recovered=%d",
				run, r.Total.Checkpoints, r.Total.RejoinsServed, r.Total.PeersRecovered)
		}
		if st := r.Faults; st.Crashes != 1 || st.Recoveries != 1 {
			t.Fatalf("run %d: witness: %d crashes, %d recoveries", run, st.Crashes, st.Recoveries)
		}
		if h := hashChaos(r); h != recoverySoakHash {
			t.Errorf("run %d: behaviour hash %#x, want %#x (time=%.6f sends=%d replayed=%d)",
				run, h, recoverySoakHash, r.TimeMS, r.Total.Sends, r.Total.InFlightReplayed)
		}
	}
}

// --- Differential reply-stream check ---

// diffTranscript is what one client worker observed: the ordered reply
// payload prefix of every call it made.
type diffTranscript [][2]byte

// runDiffWorkload runs a 2-PE machine where PE0's workers call PE1's echo
// handler and record every reply, over the lossy network seeded with seed.
// With crash set, PE1 crashes mid-workload and restarts from the
// coordinated checkpoint taken a few iterations earlier; without, it runs
// undisturbed. Returns each worker's reply transcript.
func runDiffWorkload(t *testing.T, seed uint64, crash bool) []diffTranscript {
	t.Helper()
	const (
		workers = 4
		iters   = 12
		handler = int32(7)
	)
	fcfg := faults.Config{
		Default: faults.LinkRates{DropProb: 0.05, DupProb: 0.05, DelayProb: 0.10, DelayMax: 500 * sim.Microsecond},
	}
	if crash {
		fcfg.Crashes = []faults.Crash{{PE: 1, At: sim.Time(25 * sim.Millisecond), RestartAfter: 10 * sim.Millisecond}}
	}
	plan := faults.New(fcfg, seed)
	rt := core.NewSimRuntime(core.Topology{PEs: 2, ProcsPerPE: 1}, core.Config{
		Delivery:        core.DeliverCtx,
		RSRTimeout:      10 * sim.Millisecond,
		RSRRetries:      12,
		RSRBackoff:      100 * sim.Microsecond,
		TermGrace:       10 * sim.Millisecond,
		Faults:          plan,
		CheckpointStore: recovery.NewMemStore(),
		RejoinWait:      300 * sim.Millisecond,
	}, machine.Paragon1994())
	rt.RegisterHandler(handler, func(ctx *core.RSRContext) ([]byte, error) {
		return ctx.Req, nil
	})
	out := make([]diffTranscript, workers)
	mains := map[comm.Addr]core.MainFunc{
		{PE: 0, Proc: 0}: func(th *core.Thread) {
			var ws []*core.Thread
			for w := 0; w < workers; w++ {
				w := w
				ws = append(ws, th.Process().CreateLocal(fmt.Sprintf("dw%d", w), func(me *core.Thread) {
					host := me.Process().Endpoint().Host()
					req := make([]byte, 64)
					reply := make([]byte, 64)
					for i := 0; i < iters; i++ {
						host.Compute(500)
						if w == 0 && i == 3 {
							if err := me.Checkpoint(); err != nil {
								panic(err)
							}
						}
						req[0], req[1] = byte(w), byte(i)
						if _, err := me.Call(comm.Addr{PE: 1, Proc: 0}, handler, req, reply); err != nil {
							panic(fmt.Sprintf("seed %d crash=%v w%d i%d: %v", seed, crash, w, i, err))
						}
						out[w] = append(out[w], [2]byte{reply[0], reply[1]})
						host.Compute(200)
					}
				}, defaultSpawnOpts()))
			}
			for _, w := range ws {
				if _, err := th.JoinLocal(w); err != nil {
					panic(err)
				}
			}
		},
	}
	if _, err := rt.Run(mains); err != nil {
		t.Fatalf("seed %d crash=%v: %v", seed, crash, err)
	}
	return out
}

// TestRecoveryReplyStreamDifferential is the exactly-once differential: for
// ten fault seeds, the reply stream every client worker observes from a
// server that crashed, restored its checkpoint (dedup cache and logged
// in-flight requests included), and rejoined must be identical to the stream
// a never-crashed server produces — no reply lost, duplicated, reordered,
// or leaked from the dead incarnation.
func TestRecoveryReplyStreamDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		ref := runDiffWorkload(t, seed, false)
		got := runDiffWorkload(t, seed, true)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("seed %d: reply stream with crash+recovery diverged from never-crashed reference", seed)
		}
	}
}
