package chant

import (
	"testing"

	"chant/internal/comm"
	"chant/internal/core"
	"chant/internal/experiments"
	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
	"chant/internal/ult"
)

// One benchmark per table and figure of the paper. Simulated experiments
// report their paper-relevant quantity (virtual time, event counts) as
// custom metrics alongside the usual wall-clock ns/op of regenerating
// them. Run: go test -bench=. -benchmem

// BenchmarkTable1ThreadCreate measures real thread-creation cost in the
// ult package (the paper's Table 1, "Create" column): create plus the
// thread's first dispatch and reap. Creation is drained in batches — the
// scheduler's priority scan is linear in the ready-queue length by design
// (Chant machines run tens of threads, not millions), so an unbounded
// spawn burst would measure the scan, not creation.
func BenchmarkTable1ThreadCreate(b *testing.B) {
	host := machine.NewRealHost(&machine.Model{Name: "bench"})
	s := ult.NewSched(host, &trace.Counters{}, ult.Options{})
	if err := s.Run(func() {
		const batch = 64
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := batch
			if rem := b.N - done; rem < n {
				n = rem
			}
			var last *ult.TCB
			for i := 0; i < n; i++ {
				last = s.Spawn("t", func() {})
			}
			// Joining the newest thread drains the whole FIFO batch.
			if _, err := s.Join(last); err != nil {
				b.Fatal(err)
			}
			done += n
		}
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable1ContextSwitch measures a real complete context switch
// (Table 1, "Switch" column): two threads handing off.
func BenchmarkTable1ContextSwitch(b *testing.B) {
	host := machine.NewRealHost(&machine.Model{Name: "bench"})
	s := ult.NewSched(host, &trace.Counters{}, ult.Options{})
	if err := s.Run(func() {
		yields := b.N/2 + 1
		yielder := func() {
			for i := 0; i < yields; i++ {
				s.Yield()
			}
		}
		a := s.Spawn("a", yielder)
		c := s.Spawn("b", yielder)
		b.ResetTimer()
		s.Join(a)
		s.Join(c)
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHotPathProcSwitch measures a simulated process switch: two
// processes alternating Advance, so every op is one process yielding to
// Kernel.Run and Run resuming the other (two coroutine switches).
func BenchmarkHotPathProcSwitch(b *testing.B) {
	k := sim.NewKernel()
	steps := b.N/2 + 1
	step := func(p *sim.Proc) {
		for i := 0; i < steps; i++ {
			p.Advance(1)
		}
	}
	k.Spawn("a", step)
	k.Spawn("b", step)
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHotPathULTSwitch measures both shapes of a user-level context
// switch: two threads alternating Yield (the parking thread dispatches, then
// switches out to Sched.Run, which resumes the other: two coroutine switches
// per op), and a lone thread that blocks and is completed by the polling hook
// it runs itself (a full switch in the model's books, no coroutine switch at
// all).
func BenchmarkHotPathULTSwitch(b *testing.B) {
	bare := func(b *testing.B, body func(s *ult.Sched)) {
		host := machine.NewRealHost(&machine.Model{Name: "bench"})
		s := ult.NewSched(host, &trace.Counters{}, ult.Options{})
		if err := s.Run(func() { body(s) }); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("alternating", func(b *testing.B) {
		bare(b, func(s *ult.Sched) {
			yields := b.N/2 + 1
			yielder := func() {
				for i := 0; i < yields; i++ {
					s.Yield()
				}
			}
			a, c := s.Spawn("a", yielder), s.Spawn("b", yielder)
			b.ResetTimer()
			s.Join(a)
			s.Join(c)
		})
	})
	b.Run("lone-blocked", func(b *testing.B) {
		bare(b, func(s *ult.Sched) {
			self := s.Current()
			s.SetPreSchedule(func() {
				if self.State() == ult.Blocked {
					s.Unblock(self)
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Block()
			}
		})
	})
}

// benchTable2 runs one Table-2 configuration and reports the simulated
// per-message time.
func benchTable2(b *testing.B, size int) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunTable2(experiments.Table2Config{Rounds: 200, Sizes: []int{size}})
	}
	r := rows[0]
	b.ReportMetric(r.ProcessUS, "vus/msg(process)")
	b.ReportMetric(r.TPUS, "vus/msg(TP)")
	b.ReportMetric(r.SPUS, "vus/msg(SP)")
	b.ReportMetric(r.TPOverPct, "TP-overhead-%")
	b.ReportMetric(r.SPOverPct, "SP-overhead-%")
}

// BenchmarkTable2 regenerates Table 2 (thread-based point-to-point
// overhead) at each of the paper's message sizes.
func BenchmarkTable2(b *testing.B) {
	for _, size := range experiments.Table2Sizes {
		b.Run(byteLabel(size), func(b *testing.B) { benchTable2(b, size) })
	}
}

// BenchmarkFigure8 regenerates Figure 8's series (the Table 2 data plotted
// log-log); the 1 KiB point carries the largest relative overhead.
func BenchmarkFigure8(b *testing.B) { benchTable2(b, 1024) }

// benchPolling runs one polling-experiment cell and reports the paper's
// three columns plus the Figure-13 metric.
func benchPolling(b *testing.B, pol core.PolicyKind, alpha, beta int64) {
	var row experiments.PollingRow
	for i := 0; i < b.N; i++ {
		cfg := experiments.StandardPollingBase
		cfg.Policy = pol
		cfg.Alpha = alpha
		cfg.Beta = beta
		row = experiments.RunPolling(cfg)
	}
	b.ReportMetric(row.TimeMS, "vms")
	b.ReportMetric(float64(row.CtxSw), "ctxsw")
	b.ReportMetric(float64(row.MsgTest), "msgtest")
	b.ReportMetric(row.AvgWaiting, "avg-waiting")
}

// benchPollingTable runs every policy at the paper's canonical alpha=1000
// column for one beta.
func benchPollingTable(b *testing.B, beta int64) {
	for _, pol := range experiments.StandardPolicies {
		b.Run(pol.String(), func(b *testing.B) { benchPolling(b, pol, 1000, beta) })
	}
}

// BenchmarkTable3 regenerates Table 3 (beta=100).
func BenchmarkTable3(b *testing.B) { benchPollingTable(b, 100) }

// BenchmarkTable4 regenerates Table 4 (beta=1000).
func BenchmarkTable4(b *testing.B) { benchPollingTable(b, 1000) }

// BenchmarkTable5 regenerates Table 5 (beta=0).
func BenchmarkTable5(b *testing.B) { benchPollingTable(b, 0) }

// BenchmarkFigure10 regenerates Figure 10 (execution time vs alpha,
// beta=100) at the sweep's extremes.
func BenchmarkFigure10(b *testing.B) {
	for _, alpha := range []int64{100, 100000} {
		b.Run("alpha="+intLabel(alpha), func(b *testing.B) {
			benchPolling(b, core.SchedulerPollsPS, alpha, 100)
		})
	}
}

// BenchmarkFigure11 regenerates Figure 11 (context switches): the
// thread-polls series, which pays the most switches.
func BenchmarkFigure11(b *testing.B) { benchPolling(b, core.ThreadPolls, 1000, 100) }

// BenchmarkFigure12 regenerates Figure 12 (msgtest calls): the WQ series,
// whose per-request testing dominates its running time.
func BenchmarkFigure12(b *testing.B) { benchPolling(b, core.SchedulerPollsWQ, 1000, 100) }

// BenchmarkFigure13 regenerates Figure 13 (average waiting threads).
func BenchmarkFigure13(b *testing.B) { benchPolling(b, core.SchedulerPollsPS, 10000, 100) }

// BenchmarkAblationTestAny runs the paper's Section-4.2 hypothesis: WQ
// with a single msgtestany per scheduling point.
func BenchmarkAblationTestAny(b *testing.B) {
	for _, pol := range []core.PolicyKind{core.SchedulerPollsWQ, core.SchedulerPollsWQAny} {
		b.Run(pol.String(), func(b *testing.B) { benchPolling(b, pol, 1000, 100) })
	}
}

// BenchmarkAblationFastPath measures the single-thread yield fast path
// against a contended processor.
func BenchmarkAblationFastPath(b *testing.B) {
	var rows []experiments.AblationFastPathRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RunAblationFastPath()
	}
	b.ReportMetric(rows[0].SinglePct, "1thread-ovr-%")
	b.ReportMetric(rows[0].ContendedPct, "contended-ovr-%")
}

// BenchmarkAblationDelivery measures the three delivery designs of
// Section 3.1 at 4 KiB.
func BenchmarkAblationDelivery(b *testing.B) {
	var rows []experiments.AblationDeliveryRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RunAblationDelivery()
	}
	for _, r := range rows {
		if r.Size == 4096 {
			b.ReportMetric(r.CtxUS, "vus/msg(ctx)")
			b.ReportMetric(r.TagPackUS, "vus/msg(tagpack)")
			b.ReportMetric(r.BodyUS, "vus/msg(body)")
		}
	}
}

func byteLabel(n int) string { return intLabel(int64(n)) + "B" }
func intLabel(n int64) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return intLabel(n/1000) + "k"
	default:
		var digits []byte
		if n == 0 {
			return "0"
		}
		for n > 0 {
			digits = append([]byte{byte('0' + n%10)}, digits...)
			n /= 10
		}
		return string(digits)
	}
}

// BenchmarkChannelStream measures flow-controlled channel throughput on
// the simulated machine, reporting virtual microseconds per message.
func BenchmarkChannelStream(b *testing.B) {
	const msgs = 200
	var virtUS float64
	for i := 0; i < b.N; i++ {
		rt := core.NewSimRuntime(core.Topology{PEs: 2, ProcsPerPE: 1},
			core.Config{Policy: core.SchedulerPollsPS}, machine.Paragon1994())
		res, err := rt.Run(map[comm.Addr]core.MainFunc{
			{PE: 0, Proc: 0}: func(t *core.Thread) {
				ch, err := core.OpenChannel(t, 8, 0x2000)
				if err != nil {
					b.Error(err)
					return
				}
				t.Send(core.GlobalID{PE: 1, Proc: 0, Thread: 0}, 1, ch.Encode())
				sp, err := ch.BindSend(t)
				if err != nil {
					b.Error(err)
					return
				}
				payload := make([]byte, 256)
				for m := 0; m < msgs; m++ {
					if err := sp.Send(payload); err != nil {
						b.Error(err)
						return
					}
				}
			},
			{PE: 1, Proc: 0}: func(t *core.Thread) {
				buf := make([]byte, 512)
				n, _, err := t.Recv(core.AnyThread, 1, buf)
				if err != nil {
					b.Error(err)
					return
				}
				ch, err := core.DecodeChannel(buf[:n])
				if err != nil {
					b.Error(err)
					return
				}
				rp, err := ch.BindRecv(t)
				if err != nil {
					b.Error(err)
					return
				}
				for m := 0; m < msgs; m++ {
					if _, err := rp.Recv(buf); err != nil {
						b.Error(err)
						return
					}
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		virtUS = res.VirtualEnd.Micros() / msgs
	}
	b.ReportMetric(virtUS, "vus/msg")
}
