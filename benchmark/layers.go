package main

import (
	"bytes"
	"fmt"
	"sort"
	"syscall"
	"time"

	"chant/internal/comm"
	"chant/internal/comm/memnet"
	"chant/internal/core"
	"chant/internal/machine"
	"chant/internal/recovery"
	"chant/internal/sim"
	"chant/internal/trace"
	"chant/internal/ult"
)

// The layer ledger: each module timed from outside through its exported
// functions, plus short reference runs of the workloads under the
// configurations the end-to-end metrics do not use (other policies, two Ps,
// tracer on, one caller), so that a change in an end-to-end figure can be
// attributed to one layer. It is the same for every workload; the traced
// run of each workload adds that workload's own counters and spans.

// batchTarget is how long one timed batch of a micro-measurement lasts:
// long enough to dwarf the two clock reads, short enough that a stall
// spoils one sample.
const batchTarget = 200 * time.Microsecond

// microTrials is the number of fresh-state trials per micro-measurement.
const microTrials = 5

// micro times mk()'s batch function: mk builds fresh state and returns a
// function that performs n ops and reports the elapsed time. The result is
// nanoseconds per op, median across trials of the per-trial median batch.
func micro(budget time.Duration, mk func() func(n int) time.Duration) estimate {
	n := 1
	for batch := mk(); n < 1<<24 && batch(n) < batchTarget; n *= 2 {
	}
	trials := make([][]float64, microTrials)
	for t := range trials {
		batch := mk()
		batch(n) // warm
		deadline := time.Now().Add(budget / microTrials)
		for len(trials[t]) < 20 || time.Now().Before(deadline) {
			trials[t] = append(trials[t], float64(batch(n))/float64(n))
		}
		sort.Float64s(trials[t])
	}
	return acrossTrials(trials, func(s []float64) float64 { return percentile(s, 50) })
}

// refRun is a short reference run: a few fresh-runtime trials of one
// workload configuration.
type refRun struct {
	p50    estimate    // median-of-trials median, ns
	trials [][]float64 // kept samples per trial
	last   trialOut    // what the last trial observed
}

// refTrials is the number of trials in a reference run.
const refTrials = 3

// refer runs trial under procs Ps. Any failed op fails the run.
func refer(procs int, tc trialCfg, trial func(trialCfg) trialOut) (refRun, error) {
	defer useProcs(useProcs(procs))
	var r refRun
	for t := 0; t < refTrials; t++ {
		tc.seed++
		r.last = trial(tc)
		if f := r.last.failed(tc.ops); f > 0 {
			return r, fmt.Errorf("reference run: %d of %d ops failed (%v)", f, tc.ops, r.last.err)
		}
		r.trials = append(r.trials, kept(r.last.samples))
	}
	r.p50 = p50Of(r.trials)
	return r, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ledger measures every workload-independent per-layer metric. scale
// stretches op counts and budgets with the requested run length.
func ledger(seed uint64, scale float64) (map[string]metricValue, error) {
	defer useProcs(useProcs(1))
	out := map[string]metricValue{}
	budget := time.Duration(scale * float64(150*time.Millisecond))
	ops := func(n int) int { return max(n/40+2, int(scale*float64(n))) }
	put := func(name string, e estimate, div float64) {
		out[name] = metricValue{Value: e.Value / div, IQR: e.IQR / div, N: e.N}
	}
	model := machine.Modern()

	// machine: one Interrupt/Idle hand-off between two goroutines at one P.
	put("machine.handoff_ns", micro(budget, func() func(int) time.Duration {
		a, b := machine.NewRealHost(model), machine.NewRealHost(model)
		return func(n int) time.Duration {
			done := make(chan struct{})
			go func() {
				for i := 0; i < n; i++ {
					b.Idle()
					a.Interrupt()
				}
				close(done)
			}()
			start := time.Now()
			for i := 0; i < n; i++ {
				b.Interrupt()
				a.Idle()
			}
			el := time.Since(start)
			<-done
			return el
		}
	}), 2)

	// comm: the matching engine alone, 1000 receives posted.
	put("comm.match_ns", micro(budget, func() func(int) time.Duration {
		const outstanding = 1000
		m := comm.NewMatcher()
		buf := make([]byte, 8)
		spec := func(k int) comm.MatchSpec {
			return comm.MatchSpec{SrcPE: 1, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: int32(k)}
		}
		for k := 0; k < outstanding; k++ {
			m.Post(comm.NewRecvHandle(spec(k), buf), 0)
		}
		msg := &comm.Message{Data: []byte("ping")}
		rng := uint32(seed) | 1
		return func(n int) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				rng = rng*1664525 + 1013904223
				k := int(rng % outstanding)
				msg.Hdr = comm.Header{SrcPE: 1, Tag: int32(k), Size: 4}
				h, _ := m.Deliver(msg, 0)
				if h == nil {
					panic("benchmark: matcher missed a posted receive")
				}
				comm.RearmHandle(h, spec(k), buf)
				m.Post(h, 0)
			}
			return time.Since(start)
		}
	}), 1)

	// memnet: one delivery into a posted receive (zero-copy direct path)
	// and one into the unexpected queue (ingress ring, drained by the
	// receive that follows). Each op includes the receive's post, test and
	// release.
	for _, direct := range []bool{true, false} {
		direct := direct
		name := "memnet.deliver_queued_ns"
		if direct {
			name = "memnet.deliver_direct_ns"
		}
		put(name, micro(budget, func() func(int) time.Duration {
			net := memnet.New()
			ep := net.NewEndpoint(pe1, machine.NewRealHost(model), &trace.Counters{})
			net.NewEndpoint(pe0, machine.NewRealHost(model), &trace.Counters{})
			hdr := comm.Header{SrcPE: 0, DstPE: 1, Tag: 1, Size: pingBytes}
			spec := comm.MatchSpec{SrcPE: 0, SrcProc: 0, SrcThread: 0, Ctx: 0, Tag: 1}
			data, buf := payload(seed, pingBytes), make([]byte, pingBytes)
			return func(n int) time.Duration {
				start := time.Now()
				for i := 0; i < n; i++ {
					var h *comm.RecvHandle
					if direct {
						h = ep.Irecv(spec, buf)
						if !net.TryDeliverDirect(hdr, data) {
							panic("benchmark: direct delivery refused")
						}
					} else {
						msg := comm.GetPooledMessage(pingBytes)
						copy(msg.Data, data)
						msg.Hdr = hdr
						net.Deliver(msg)
						h = ep.Irecv(spec, buf)
					}
					if !ep.Test(h) {
						panic("benchmark: delivered receive not complete")
					}
					ep.ReleaseHandle(h)
				}
				return time.Since(start)
			}
		}), 1)
	}

	// ult: a Yield that switches threads, the ready queue at 1000 TCBs, and
	// spawn + join, each on a bare scheduler.
	bare := func(body func(s *ult.Sched)) {
		s := ult.NewSched(machine.NewRealHost(model), &trace.Counters{}, ult.Options{})
		if err := s.Run(func() { body(s) }); err != nil {
			panic("benchmark: bare scheduler: " + err.Error())
		}
	}
	put("ult.yield_switch_ns", micro(budget, func() func(int) time.Duration {
		return func(n int) time.Duration {
			var el time.Duration
			bare(func(s *ult.Sched) {
				spin := func() {
					for i := 0; i < n; i++ {
						s.Yield()
					}
				}
				start := time.Now()
				a, b := s.Spawn("a", spin), s.Spawn("b", spin)
				s.Join(a)
				s.Join(b)
				el = time.Since(start)
			})
			return el
		}
	}), 2)
	put("ult.queue_ns", micro(budget, func() func(int) time.Duration {
		q := &ult.ReadyQueue{}
		for i := 0; i < 1000; i++ {
			q.Push(ult.NewBenchTCB(int32(i), i%8))
		}
		return func(n int) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				q.Push(q.Pop())
			}
			return time.Since(start)
		}
	}), 1)
	put("ult.spawn_join_us", micro(budget, func() func(int) time.Duration {
		return func(n int) time.Duration {
			var el time.Duration
			bare(func(s *ult.Sched) {
				start := time.Now()
				for i := 0; i < n; i++ {
					s.Join(s.Spawn("t", func() {}))
				}
				el = time.Since(start)
			})
			return el
		}
	}), 1e3)

	// sim: event insert + dispatch, and a process switch (two processes
	// alternating Advance).
	put("sim.event_ns", micro(budget, func() func(int) time.Duration {
		return func(n int) time.Duration {
			k := sim.NewKernel()
			start := time.Now()
			for i := 0; i < n; i++ {
				k.At(sim.Time(i), func() {})
			}
			if err := k.Run(0); err != nil {
				panic("benchmark: sim kernel: " + err.Error())
			}
			return time.Since(start)
		}
	}), 1)
	put("sim.proc_switch_ns", micro(budget, func() func(int) time.Duration {
		return func(n int) time.Duration {
			k := sim.NewKernel()
			step := func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Advance(1)
				}
			}
			k.Spawn("a", step)
			k.Spawn("b", step)
			start := time.Now()
			if err := k.Run(0); err != nil {
				panic("benchmark: sim kernel: " + err.Error())
			}
			return time.Since(start)
		}
	}), 2)

	// trace: recording one span into the flight recorder.
	put("trace.span_ns", micro(budget, func() func(int) time.Duration {
		tr := trace.NewFlightTracer(1, 0)
		return func(n int) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				tr.Span(trace.SpanSend, 0, 1, sim.Time(i), sim.Time(i+1), 64)
			}
			return time.Since(start)
		}
	}), 1)

	// recovery: the codec over one fixed synthetic checkpoint.
	cp := syntheticCheckpoint(seed)
	archive := recovery.Encode(cp)
	out["recovery.archive_bytes"] = metricValue{Value: float64(len(archive)), N: 1}
	put("recovery.encode_ns", micro(budget, func() func(int) time.Duration {
		return func(n int) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				archive = recovery.Encode(cp)
			}
			return time.Since(start)
		}
	}), 1)
	put("recovery.decode_ns", micro(budget, func() func(int) time.Duration {
		return func(n int) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := recovery.Decode(archive); err != nil {
					panic("benchmark: decode: " + err.Error())
				}
			}
			return time.Since(start)
		}
	}), 1)

	// sim: the Table-3 grid's simulated statistics, which repeat exactly.
	grid := totalsOf(runTable3(0))
	out["sim.virtual_ms"] = metricValue{Value: grid.virtualMS, N: 1}
	out["sim.paper_err_pct"] = metricValue{Value: grid.paperErrPct, N: 1}
	out["sim.ctxsw_total"] = metricValue{Value: float64(grid.ctxsw), N: 1}
	out["sim.msgtest_total"] = metricValue{Value: float64(grid.msgtest), N: 1}

	// Reference runs. Each is the median over three fresh runtimes.
	ping := trialCfg{seed: seed, warm: 500, ops: ops(8000)}
	pingWith := func(cfg core.Config, tr *trace.Tracer) func(trialCfg) trialOut {
		return func(tc trialCfg) trialOut {
			tc.tracer = tr
			return pingpongTrial(tc, memMachine, cfg)
		}
	}

	// comm: process-based ping-pong on two bare endpoints, no threads.
	rawRun, err := refer(1, ping, rawPingpongTrial)
	if err != nil {
		return nil, err
	}
	raw := rawRun.p50
	put("comm.raw_rtt_p50_us", raw, 1e3)

	// core: the thread-based round trip per policy; Table 2's thread
	// overhead is the PS figure minus the raw one.
	var ps estimate
	for _, pol := range []struct {
		suffix string
		kind   core.PolicyKind
	}{{"tp", core.ThreadPolls}, {"ps", core.SchedulerPollsPS}, {"wq", core.SchedulerPollsWQ}} {
		r, err := refer(1, ping, pingWith(core.Config{Policy: pol.kind}, nil))
		if err != nil {
			return nil, err
		}
		put("core.policy_rtt_p50_us."+pol.suffix, r.p50, 1e3)
		if pol.kind == core.SchedulerPollsPS {
			ps = r.p50
		}
	}
	out["core.thread_overhead_us"] = metricValue{Value: (ps.Value - raw.Value) / 1e3, N: ps.N}

	// trace: the same round trip with the flight recorder attached.
	on, err := refer(1, ping, pingWith(core.Config{Policy: core.SchedulerPollsPS}, trace.NewFlightTracer(2, 0)))
	if err != nil {
		return nil, err
	}
	out["trace.on_rtt_ratio"] = metricValue{Value: on.p50.Value / ps.Value, N: on.p50.N}

	// core: one caller's Call against the plain round trip.
	call1, err := refer(1, trialCfg{seed: seed, warm: 500, ops: ops(6000)},
		func(tc trialCfg) trialOut { return rsrTrial(tc, 1) })
	if err != nil {
		return nil, err
	}
	out["core.rsr_overhead_us"] = metricValue{Value: (call1.p50.Value - ps.Value) / 1e3, N: call1.p50.N}

	// machine: the round trip with a P per PE. It is bimodal: fast when the
	// peer's spin catches the wake-up, slow when the peer has parked.
	cpu0 := cpuTime()
	xcore, err := refer(2, ping, pingWith(core.Config{Policy: core.SchedulerPollsPS}, nil))
	if err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0
	put("machine.xcore_rtt_p50_us", xcore.p50, 1e3)
	slow, total := 0, 0
	for _, t := range xcore.trials {
		for _, v := range t {
			total++
			if v > 2*ps.Value {
				slow++
			}
		}
	}
	out["machine.xcore_slow_share"] = metricValue{Value: float64(slow) / float64(total), N: total}
	out["machine.xcore_cpu_us_per_op"] = metricValue{
		Value: float64(cpu.Microseconds()) / float64(refTrials*(ping.warm+ping.ops)), N: refTrials * ping.ops}

	// tcpnet: the round trip and a one-way 64 KiB flood over loopback.
	tcp, err := refer(2, trialCfg{seed: seed, warm: 300, ops: ops(3000)},
		func(tc trialCfg) trialOut {
			return pingpongTrial(tc, tcpMachine, core.Config{Policy: core.SchedulerPollsPS})
		})
	if err != nil {
		return nil, err
	}
	out["tcpnet.over_memnet_us"] = metricValue{Value: (tcp.p50.Value - ps.Value) / 1e3, N: tcp.p50.N}
	tcpTail, _ := tailOf(tcp.trials, 99)
	put("tcpnet.rtt_p99_us", tcpTail, 1e3)
	const bulk = 64 << 10
	win, err := refer(2, trialCfg{seed: seed, warm: 10, ops: ops(100)},
		func(tc trialCfg) trialOut { return streamTrial(tc, tcpMachine, bulk) })
	if err != nil {
		return nil, err
	}
	out["tcpnet.oneway_64k_mb_per_s"] = metricValue{Value: streamWindow * bulk / (win.p50.Value / 1e9) / 1e6, N: win.p50.N}

	// sim: the timed cell on the parallel kernel and at two Ps, against the
	// sequential kernel at one. Rows must not depend on either.
	cell := trialCfg{seed: seed, warm: 2, ops: ops(60)}
	var rows [3]trace.Snapshot
	var host [3]estimate
	for i, v := range []struct{ procs, shards int }{{1, 0}, {1, 2}, {2, 0}} {
		shards := v.shards
		r, err := refer(v.procs, cell, func(tc trialCfg) trialOut { return simTrial(tc, shards) })
		if err != nil {
			return nil, err
		}
		host[i], rows[i] = r.p50, r.last.ctr
	}
	if rows[1] != rows[0] || rows[2] != rows[0] {
		return nil, fmt.Errorf("sim rows differ across kernels: sequential %+v, 2 shards %+v, 2 Ps %+v", rows[0], rows[1], rows[2])
	}
	out["sim.par2_host_ratio"] = metricValue{Value: host[1].Value / host[0].Value, N: host[1].N}
	out["sim.gomaxprocs2_host_ratio"] = metricValue{Value: host[2].Value / host[0].Value, N: host[2].N}
	return out, nil
}

// rawPingpongTrial is the paper's process-based baseline: two bare
// comm.Endpoints on the in-memory network, one goroutine each, blocking
// Send/Recv, no threads package in the path.
func rawPingpongTrial(tc trialCfg) trialOut {
	var out trialOut
	n := tc.warm + tc.ops
	out.samples = make([]int64, 0, tc.ops)
	model := machine.Modern()
	net := memnet.New()
	e0 := net.NewEndpoint(pe0, machine.NewRealHost(model), &trace.Counters{})
	e1 := net.NewEndpoint(pe1, machine.NewRealHost(model), &trace.Counters{})
	from := func(a comm.Addr) comm.MatchSpec {
		return comm.MatchSpec{SrcPE: a.PE, SrcProc: a.Proc, SrcThread: 0, Ctx: 0, Tag: 1}
	}
	msg := payload(tc.seed, pingBytes)
	done := make(chan struct{})
	go rawEcho(e1, from(pe0), n, &out.bad[1], done)
	buf := make([]byte, pingBytes)
	for i := 0; i < n; i++ {
		start := time.Now()
		e0.Send(pe1, 0, 1, 0, msg)
		got, _, err := e0.Recv(from(pe1), buf)
		end := time.Now()
		if i < tc.warm {
			continue
		}
		out.samples = append(out.samples, int64(end.Sub(start)))
		out.completed++
		if err != nil || !bytes.Equal(buf[:got], msg) {
			out.bad[0]++
		}
	}
	<-done
	return out
}

// rawEcho is the echoing process of rawPingpongTrial: this goroutine is
// the one processor of endpoint e, as a PE's goroutine is in a runtime.
func rawEcho(e *comm.Endpoint, spec comm.MatchSpec, n int, bad *int, done chan<- struct{}) {
	defer close(done)
	buf := make([]byte, pingBytes)
	for i := 0; i < n; i++ {
		got, hdr, err := e.Recv(spec, buf)
		if err != nil {
			*bad++
		}
		e.Send(hdr.Src(), 0, 1, 0, buf[:got])
	}
}

// syntheticCheckpoint is a fixed, mid-sized process state: 8 handlers, 16
// dedup records with cached replies, 8 shared variables, 16 unexpected and
// 4 in-flight messages of 256 B.
func syntheticCheckpoint(seed uint64) *recovery.Checkpoint {
	body := payload(seed, 256)
	cp := &recovery.Checkpoint{Addr: pe1, Epoch: 1, At: 12345, NextReq: 99}
	for i := int32(0); i < 8; i++ {
		cp.Handlers = append(cp.Handlers, i)
		cp.Shared = append(cp.Shared, recovery.SharedState{
			Name: fmt.Sprintf("var%d", i), Value: body, Version: int64(i), Valid: true, Home: i%2 == 0,
			Directory: []comm.Addr{pe0, pe1},
		})
	}
	for i := int32(0); i < 16; i++ {
		cp.Dedup = append(cp.Dedup, recovery.DedupState{
			SrcPE: 0, SrcThread: i, Seq: uint32(100 + i), ReplyTag: i, HasReply: true, Reply: body[:64],
		})
		msg := recovery.CapturedMessage{
			Hdr:  comm.Header{SrcPE: 0, DstPE: 1, SrcThread: i, Tag: 1, Size: int32(len(body))},
			Data: body, SentAt: sim.Time(i),
		}
		cp.Unexpected = append(cp.Unexpected, msg)
		if i < 4 {
			cp.InFlight = append(cp.InFlight, msg)
		}
	}
	cp.Normalize()
	return cp
}
