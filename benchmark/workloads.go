package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"chant/internal/comm"
	"chant/internal/comm/tcpnet"
	"chant/internal/core"
	"chant/internal/experiments"
	"chant/internal/machine"
	"chant/internal/trace"
	"chant/internal/ult"
)

// trialCfg is what one trial is asked to do. Every trial builds a fresh
// runtime, runs warm untimed ops, then ops timed ones. All workloads are
// closed loops: a caller issues its next op only after the reply or credit
// for the previous one.
type trialCfg struct {
	seed   uint64
	warm   int
	ops    int
	tracer *trace.Tracer // nil on every timed run; set only by the traced run
	spans  *spanSet      // the benchmark's own spans; nil unless traced
}

// trialOut is what a trial observed.
type trialOut struct {
	setup     time.Duration // runtime construction up to the end of the first (cold, untimed) op
	samples   []int64       // ns per timed op
	completed int           // timed ops that finished
	bad       [2]int        // wrong outputs seen, per PE (each PE writes its own slot)
	mallocs   uint64        // heap allocations during the timed ops
	ctr       trace.Snapshot
	ctrOps    int // ops that ctr and the runtime's spans cover
	ingress   ingressStats
	err       error
}

// ingressStats sums comm.Endpoint.IngressStats over the machine.
type ingressStats struct{ batches, messages, direct uint64 }

// failed counts the trial's failed ops: not completed, or completed wrong.
func (o *trialOut) failed(ops int) int {
	f := ops - o.completed + o.bad[0] + o.bad[1]
	if o.err != nil || f > ops {
		return ops
	}
	return f
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	why  string
	// procs is the GOMAXPROCS the workload pins. Memnet and simulator
	// workloads pin 1: both PEs time-share one P, which measures software
	// path length and was measured unimodal; at 2 the memnet round trip is
	// bimodal (spin catches the wake-up or the peer parks). See README.md.
	procs int
	// loopback is set when traffic crosses the host's loopback interface.
	loopback bool
	// simulated workloads run in virtual time on the deterministic paths.
	simulated bool
	warm      int // untimed warm-up ops per trial
	calib     int // timed ops of the calibration trial that sizes the rest
	traced    int // timed ops per trial of the traced run (bounded so the flight recorder does not wrap)
	trial     func(tc trialCfg) trialOut
	// verify runs once per run, outside every timing: exact checks that do
	// not belong to a single op. It returns checks attempted and failed.
	verify func(seed uint64) (attempted, failed int, err error)
}

const (
	pingBytes    = 64
	waiterBytes  = 256
	waiterCount  = 32
	waiterAlpha  = 200
	streamBytes  = 4096
	streamWindow = 32
	rsrBytes     = 32
	rsrCallers   = 4
	rsrHandler   = 1
)

var (
	pe0   = comm.Addr{PE: 0, Proc: 0}
	pe1   = comm.Addr{PE: 1, Proc: 0}
	main0 = core.GlobalID{PE: 0, Proc: 0, Thread: 0}
	main1 = core.GlobalID{PE: 1, Proc: 0, Thread: 0}
)

func workloads() []workload {
	return []workload{
		{
			name:  "pingpong",
			why:   "2 PEs x 1 talking thread, 64 B echo over memnet: the paper's Table-2 round trip; queues, copies and RSR idle",
			procs: 1, warm: 1000, calib: 20000, traced: 20000,
			trial: func(tc trialCfg) trialOut {
				return pingpongTrial(tc, memMachine, core.Config{Policy: core.SchedulerPollsPS, DisableServer: true})
			},
		},
		waitersWorkload("waiters_tp", core.ThreadPolls,
			"2 PEs x 32 threads in the Figure-9 loop under Thread polls: every waiter stays on the ready queue and tests itself"),
		waitersWorkload("waiters_ps", core.SchedulerPollsPS,
			"same loop under Scheduler polls (PS): partial switches test the TCB's request; loads ReadyQueue and bucketed mailbox"),
		waitersWorkload("waiters_wq", core.SchedulerPollsWQ,
			"same loop under Scheduler polls (WQ): the scheduler drains the completion list at every scheduling point"),
		{
			name:  "stream",
			why:   "one-way 4 KiB flood under a 32-message credit window: ingress batches, unexpected queue and copies, not direct delivery",
			procs: 1, warm: 100, calib: 500, traced: 1200,
			trial: func(tc trialCfg) trialOut {
				return streamTrial(tc, memMachine, streamBytes)
			},
		},
		{
			name:  "rsr",
			why:   "4 caller threads issue 32 B Thread.Call to an echo handler: RSR envelope, dedup cache, reply decode, server boost",
			procs: 1, warm: 1000, calib: 10000, traced: 10000,
			trial: func(tc trialCfg) trialOut { return rsrTrial(tc, rsrCallers) },
		},
		{
			name:  "tcp_pingpong",
			why:   "the pingpong echo between two tcpnet nodes over 127.0.0.1: framing, write coalescing, read loop, cross-thread Interrupt",
			procs: 2, loopback: true, warm: 200, calib: 1500, traced: 3000,
			trial: func(tc trialCfg) trialOut {
				return pingpongTrial(tc, tcpMachine, core.Config{Policy: core.SchedulerPollsPS})
			},
		},
		{
			name:  "sim_table3",
			why:   "simulated mode, sequential kernel: one small Table-3 cell timed on the host, the full grid checked exactly",
			procs: 1, simulated: true, warm: 3, calib: 20, traced: 200,
			trial:  func(tc trialCfg) trialOut { return simTrial(tc, 0) },
			verify: verifyTable3,
		},
	}
}

func waitersWorkload(name string, policy core.PolicyKind, why string) workload {
	return workload{
		name: name, why: why,
		procs: 1, warm: 100, calib: 300, traced: 1200,
		trial: func(tc trialCfg) trialOut { return waitersTrial(tc, policy) },
	}
}

// payload returns n seeded bytes.
func payload(seed uint64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(seed))).Read(b)
	return b
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// machineFunc runs main0 on PE 0 and main1 on PE 1 of a fresh 2-PE machine
// and reports the summed counters and ingress statistics.
type machineFunc func(cfg core.Config, main0, main1 core.MainFunc) (trace.Snapshot, ingressStats, error)

// memMachine is a real-mode runtime over the in-memory transport.
func memMachine(cfg core.Config, m0, m1 core.MainFunc) (trace.Snapshot, ingressStats, error) {
	return memMachineReg(cfg, nil, m0, m1)
}

func memMachineReg(cfg core.Config, handler core.Handler, m0, m1 core.MainFunc) (trace.Snapshot, ingressStats, error) {
	rt := core.NewRealRuntime(core.Topology{PEs: 2, ProcsPerPE: 1}, cfg, machine.Modern())
	if handler != nil {
		rt.RegisterHandler(rsrHandler, handler)
	}
	res, err := rt.Run(map[comm.Addr]core.MainFunc{pe0: m0, pe1: m1})
	if err != nil {
		return trace.Snapshot{}, ingressStats{}, err
	}
	var in ingressStats
	for _, a := range []comm.Addr{pe0, pe1} {
		b, m, d := rt.Process(a).Endpoint().IngressStats()
		in.batches += b
		in.messages += m
		in.direct += d
	}
	return res.Total, in, nil
}

// leaderHeadStart is how long the joining node waits for the leading one
// to open the rendezvous port.
const leaderHeadStart = 5 * time.Millisecond

// tcpMachine runs the two processes as two tcpnet nodes in this OS process,
// each with its own runtime, joined over 127.0.0.1: the isolation two OS
// processes would have, minus a second address space.
func tcpMachine(cfg core.Config, m0, m1 core.MainFunc) (trace.Snapshot, ingressStats, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return trace.Snapshot{}, ingressStats{}, fmt.Errorf("pick rendezvous port: %w", err)
	}
	rendezvous := l.Addr().String()
	l.Close()

	topo := core.Topology{PEs: 2, ProcsPerPE: 1}
	mains := [2]core.MainFunc{m0, m1}
	var (
		wg    sync.WaitGroup
		snaps [2]trace.Snapshot
		ins   [2]ingressStats
		errs  [2]error
	)
	for pe := int32(0); pe < 2; pe++ {
		wg.Add(1)
		go func(pe int32) {
			defer wg.Done()
			if pe != 0 {
				// A joiner that dials before the leader listens waits 50 ms
				// to retry, which would make set-up time a coin toss.
				time.Sleep(leaderHeadStart)
			}
			self := comm.Addr{PE: pe, Proc: 0}
			node, err := tcpnet.Bootstrap(tcpnet.Options{Self: self, Rendezvous: rendezvous, Lead: pe == 0, Procs: 2})
			if err != nil {
				errs[pe] = fmt.Errorf("bootstrap %v: %w", self, err)
				return
			}
			defer node.Close()
			ep := node.NewEndpoint(self, machine.NewRealHost(machine.Modern()), &trace.Counters{})
			rt := core.NewDistRuntime(topo, cfg, machine.Modern())
			snaps[pe], errs[pe] = rt.RunOne(self, ep, mains[pe])
			ins[pe].batches, ins[pe].messages, ins[pe].direct = ep.IngressStats()
		}(pe)
	}
	wg.Wait()
	total := snaps[0]
	total.Add(snaps[1])
	in := ingressStats{ins[0].batches + ins[1].batches, ins[0].messages + ins[1].messages, ins[0].direct + ins[1].direct}
	if errs[0] != nil {
		return total, in, errs[0]
	}
	return total, in, errs[1]
}

// pingpongTrial: PE 0's main thread sends size bytes to PE 1's main thread
// and waits for the echo. One op is one round trip; the echo is compared
// byte for byte.
func pingpongTrial(tc trialCfg, run machineFunc, cfg core.Config) trialOut {
	var out trialOut
	cfg.Tracer = tc.tracer
	n := tc.warm + tc.ops
	out.samples = make([]int64, 0, tc.ops)
	out.ctrOps = n
	msg := payload(tc.seed, pingBytes)
	t0 := time.Now()
	out.ctr, out.ingress, out.err = run(cfg,
		func(t *core.Thread) {
			sp := tc.spans.log(0)
			buf := make([]byte, pingBytes)
			var m0 uint64
			for i := 0; i < n; i++ {
				if i == tc.warm {
					m0 = mallocs()
				}
				binary.LittleEndian.PutUint64(msg, uint64(i))
				start := time.Now()
				errS := t.Send(main1, 1, msg)
				var mid time.Time
				if sp != nil {
					mid = time.Now()
				}
				got, _, errR := t.Recv(main1, 1, buf)
				end := time.Now()
				if i == 0 {
					out.setup = end.Sub(t0)
				}
				if i < tc.warm {
					continue
				}
				out.samples = append(out.samples, int64(end.Sub(start)))
				out.completed++
				if errS != nil || errR != nil || !bytes.Equal(buf[:got], msg) {
					out.bad[0]++
				}
				if sp != nil {
					op := sp.add("op", -1, i, start, end)
					sp.add("Thread.Send", op, i, start, mid)
					sp.add("Thread.Recv", op, i, mid, end)
				}
			}
			out.mallocs = mallocs() - m0
		},
		func(t *core.Thread) {
			buf := make([]byte, pingBytes)
			for i := 0; i < n; i++ {
				got, _, err := t.Recv(main0, 1, buf)
				if err != nil {
					out.bad[1]++
				}
				if err := t.Send(main0, 1, buf[:got]); err != nil {
					out.bad[1]++
				}
			}
		})
	return out
}

// waitersTrial runs the paper's Figure-9 loop on 32 worker threads per PE:
//
//	compute(alpha); send 256 B to worker w+1 on the other PE; compute(alpha); recv from worker w-1
//
// One op is one sweep: the interval between consecutive moments at which
// all 32 workers of PE 0 have finished an iteration. With 32 receives
// outstanding per PE, the polling policy, the ready queue and the bucketed
// mailbox do the work a single ping-pong bypasses.
func waitersTrial(tc trialCfg, policy core.PolicyKind) trialOut {
	var out trialOut
	n := tc.warm + tc.ops
	out.ctrOps = n
	ref := payload(tc.seed, waiterBytes)
	sink := make([]uint64, 2*waiterCount) // keeps every worker's compute result live
	finished := make([]int32, n)          // PE 0 workers done with iteration i
	stamps := make([]time.Time, n)
	var m0 uint64
	t0 := time.Now()
	worker := func(pe, w int32, me *core.Thread) {
		sp := tc.spans.log(int(pe))
		rng := rand.New(rand.NewSource(int64(tc.seed) + int64(pe)*1009 + int64(w)))
		sendTo := core.GlobalID{PE: pe ^ 1, Proc: 0, Thread: (w+1)%waiterCount + 1}
		from := (w - 1 + waiterCount) % waiterCount
		recvFrom := core.GlobalID{PE: pe ^ 1, Proc: 0, Thread: from + 1}
		msg := append([]byte(nil), ref...)
		buf := make([]byte, waiterBytes)
		acc := uint64(0x9E3779B9)
		defer func() { sink[pe*waiterCount+w] = acc }()
		alpha := func() int64 { return waiterAlpha - waiterAlpha/20 + rng.Int63n(waiterAlpha/10+1) } // 200 +- 5 %
		for i := 0; i < n; i++ {
			var start, sent, posted time.Time
			if sp != nil {
				start = time.Now()
			}
			acc = compute(acc, alpha())
			binary.LittleEndian.PutUint32(msg, uint32(w))
			binary.LittleEndian.PutUint32(msg[4:], uint32(i))
			if sp != nil {
				sent = time.Now()
			}
			errS := me.Send(sendTo, 1, msg)
			if sp != nil {
				posted = time.Now()
			}
			acc = compute(acc, alpha())
			var recvAt time.Time
			if sp != nil {
				recvAt = time.Now()
			}
			got, _, errR := me.Recv(recvFrom, 1, buf)
			if i >= tc.warm && (errS != nil || errR != nil || got != waiterBytes ||
				binary.LittleEndian.Uint32(buf) != uint32(from) ||
				binary.LittleEndian.Uint32(buf[4:]) != uint32(i) ||
				!bytes.Equal(buf[8:], ref[8:])) {
				out.bad[pe]++
			}
			if sp != nil && i >= tc.warm {
				end := time.Now()
				op := sp.add("op", -1, i, start, end)
				sp.add("Thread.Send", op, i, sent, posted)
				sp.add("Thread.Recv", op, i, recvAt, end)
			}
			if pe != 0 {
				continue
			}
			finished[i]++
			if finished[i] < waiterCount {
				continue
			}
			stamps[i] = time.Now()
			if i == 0 {
				out.setup = stamps[i].Sub(t0)
			}
			if i == tc.warm-1 {
				m0 = mallocs()
			}
			if i == n-1 {
				out.mallocs = mallocs() - m0
			}
		}
	}
	mk := func(pe int32) core.MainFunc {
		return func(t *core.Thread) {
			ws := make([]*core.Thread, waiterCount)
			for w := int32(0); w < waiterCount; w++ {
				w := w
				ws[w] = t.Process().CreateLocal(fmt.Sprintf("w%d", w),
					func(me *core.Thread) { worker(pe, w, me) }, ult.SpawnOpts{})
			}
			for _, w := range ws {
				if _, err := t.JoinLocal(w); err != nil {
					out.bad[pe]++
				}
			}
		}
	}
	out.ctr, out.ingress, out.err = memMachine(
		core.Config{Policy: policy, DisableServer: true, Tracer: tc.tracer}, mk(0), mk(1))
	out.samples = make([]int64, 0, tc.ops)
	for i := tc.warm; i < n && !stamps[i].IsZero(); i++ {
		out.samples = append(out.samples, int64(stamps[i].Sub(stamps[i-1])))
		out.completed++
	}
	return out
}

// compute spins for units iterations of the work machine.RealHost.Compute
// does, carrying acc through so the loop stays live. RealHost.Compute itself
// stores into one package-level variable, which is a data race (benign, but
// `go test -race` fails on it) as soon as two real-mode PEs compute at once.
func compute(acc uint64, units int64) uint64 {
	for i := int64(0); i < units; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
	}
	return acc
}

// streamTrial floods size-byte messages one way under a 32-message credit
// window. One op is one window: 32 sends plus the receiver's credit. The
// receiver checks per-sender FIFO order and every payload byte; the sender
// checks that the credit names its window.
func streamTrial(tc trialCfg, run machineFunc, size int) trialOut {
	var out trialOut
	n := tc.warm + tc.ops
	out.samples = make([]int64, 0, tc.ops)
	out.ctrOps = n
	ref := payload(tc.seed, size)
	t0 := time.Now()
	out.ctr, out.ingress, out.err = run(
		core.Config{Policy: core.SchedulerPollsPS, DisableServer: true, Tracer: tc.tracer},
		func(t *core.Thread) {
			sp := tc.spans.log(0)
			msg := append([]byte(nil), ref...)
			ack := make([]byte, 8)
			var m0 uint64
			for w := 0; w < n; w++ {
				if w == tc.warm {
					m0 = mallocs()
				}
				start := time.Now()
				var errS error
				for k := 0; k < streamWindow; k++ {
					binary.LittleEndian.PutUint64(msg, uint64(w*streamWindow+k))
					if err := t.Send(main1, 1, msg); err != nil {
						errS = err
					}
				}
				var mid time.Time
				if sp != nil {
					mid = time.Now()
				}
				got, _, errR := t.Recv(main1, 3, ack)
				end := time.Now()
				if w == 0 {
					out.setup = end.Sub(t0)
				}
				if w < tc.warm {
					continue
				}
				out.samples = append(out.samples, int64(end.Sub(start)))
				out.completed++
				if errS != nil || errR != nil || got != 8 || binary.LittleEndian.Uint64(ack) != uint64(w) {
					out.bad[0]++
				}
				if sp != nil {
					op := sp.add("op", -1, w, start, end)
					sp.add("Thread.Send", op, w, start, mid) // all 32 sends of the window
					sp.add("Thread.Recv", op, w, mid, end)
				}
			}
			out.mallocs = mallocs() - m0
		},
		func(t *core.Thread) {
			buf := make([]byte, size)
			credit := make([]byte, 8)
			for i := 0; i < n*streamWindow; i++ {
				got, _, err := t.Recv(core.AnyThread, 1, buf)
				if err != nil || got != size || binary.LittleEndian.Uint64(buf) != uint64(i) ||
					!bytes.Equal(buf[8:], ref[8:]) {
					out.bad[1]++
				}
				if (i+1)%streamWindow == 0 {
					binary.LittleEndian.PutUint64(credit, uint64(i/streamWindow))
					if err := t.Send(main0, 3, credit); err != nil {
						out.bad[1]++
					}
				}
			}
		})
	return out
}

// rsrTrial: callers threads on PE 0 each issue 32 B Thread.Call requests to
// an echo handler run by PE 1's server thread. One op is one call; the
// reply must equal the request.
func rsrTrial(tc trialCfg, callers int) trialOut {
	var out trialOut
	out.samples = make([]int64, 0, tc.ops)
	ref := payload(tc.seed, rsrBytes)
	out.ctrOps = tc.warm + tc.ops
	started := false
	var m0 uint64
	t0 := time.Now()
	caller := func(c int, me *core.Thread) {
		// Caller c takes every callers-th op, so any op count divides.
		warmEach, opsEach := share(tc.warm, c, callers), share(tc.ops, c, callers)
		sp := tc.spans.log(0)
		req := append([]byte(nil), ref...)
		reply := make([]byte, rsrBytes)
		for i := 0; i < warmEach+opsEach; i++ {
			if i == warmEach && !started {
				started = true
				m0 = mallocs()
			}
			binary.LittleEndian.PutUint32(req, uint32(c))
			binary.LittleEndian.PutUint32(req[4:], uint32(i))
			start := time.Now()
			got, err := me.Call(pe1, rsrHandler, req, reply)
			end := time.Now()
			if out.setup == 0 {
				out.setup = end.Sub(t0)
			}
			if i < warmEach {
				continue
			}
			out.samples = append(out.samples, int64(end.Sub(start)))
			out.completed++
			if err != nil || !bytes.Equal(reply[:got], req) {
				out.bad[0]++
			}
			if sp != nil {
				op := sp.add("op", -1, i*callers+c, start, end)
				sp.add("Thread.Call", op, i*callers+c, start, end)
			}
		}
	}
	echo := func(ctx *core.RSRContext) ([]byte, error) { return ctx.Req, nil }
	out.ctr, out.ingress, out.err = memMachineReg(
		core.Config{Policy: core.SchedulerPollsPS, Tracer: tc.tracer}, echo,
		func(t *core.Thread) {
			ws := make([]*core.Thread, callers)
			for c := range ws {
				c := c
				ws[c] = t.Process().CreateLocal(fmt.Sprintf("caller%d", c),
					func(me *core.Thread) { caller(c, me) }, ult.SpawnOpts{})
			}
			for _, w := range ws {
				if _, err := t.JoinLocal(w); err != nil {
					out.bad[0]++
				}
			}
			out.mallocs = mallocs() - m0
		}, nil)
	return out
}

// share is how many of n items fall to member c of k taking turns.
func share(n, c, k int) int { return (n + k - 1 - c) / k }

// simCell is the small cell sim_table3 times on the host: Table 3's
// cheapest column under the paper's best policy, cut to 4 iterations so
// one run takes about a millisecond and a trial holds a thousand samples.
// Jitter is on so that the seed reaches the simulated program.
func simCell(seed uint64) experiments.PollingConfig {
	cfg := experiments.StandardPollingBase
	cfg.Policy = core.SchedulerPollsPS
	cfg.Alpha, cfg.Beta = 100, 100
	cfg.Iters = 4
	cfg.JitterPct = 10
	cfg.Seed = seed | 1 // 0 would select RunPolling's default seed
	return cfg
}

// simTrial times repeated runs of simCell; one op is one run, which
// simulates workers x iterations x 2 PEs = 96 Figure-9 loop iterations.
// Each run builds its own simulated runtime, so set-up is inside the op;
// setup is the time of the first, cold run. Every run must return the
// same row: simulated results are exact. With a tracer, each run records
// into a store of its own (runs all start at virtual time zero and would
// overlap in one store) and the last run's spans are handed to tc.tracer.
func simTrial(tc trialCfg, shards int) trialOut {
	var out trialOut
	out.samples = make([]int64, 0, tc.ops)
	out.ctrOps = 1
	cfg := simCell(tc.seed)
	cfg.Shards = shards
	sp := tc.spans.log(0)
	var want experiments.PollingRow
	var m0 uint64
	t0 := time.Now()
	for i := 0; i < tc.warm+tc.ops; i++ {
		if i == tc.warm {
			m0 = mallocs()
		}
		if tc.tracer != nil {
			cfg.Tracer = trace.NewTracer(0)
		}
		start := time.Now()
		row := experiments.RunPolling(cfg)
		end := time.Now()
		if i == 0 {
			want = row
			out.setup = end.Sub(t0)
		}
		if i < tc.warm {
			continue
		}
		out.samples = append(out.samples, int64(end.Sub(start)))
		out.completed++
		if row != want {
			out.bad[0]++
		}
		if sp != nil {
			op := sp.add("op", -1, i, start, end)
			sp.add("experiments.RunPolling", op, i, start, end)
		}
	}
	out.mallocs = mallocs() - m0
	if tc.tracer != nil {
		for _, s := range cfg.Tracer.Snapshot() {
			tc.tracer.Span(s.Kind, s.PE, s.TID, s.Begin, s.End, s.Arg)
		}
	}
	out.ctr = trace.Snapshot{
		FullSwitches: want.CtxSw, PartialSwitches: want.PartialSw,
		MsgTestCalls: want.MsgTest, MsgTestFails: want.MsgTestFails, TestAnyCalls: want.TestAnyCalls,
	}
	return out
}
