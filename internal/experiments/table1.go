package experiments

import (
	"time"

	"chant/internal/machine"
	"chant/internal/trace"
	"chant/internal/ult"
)

// Table1Result reports this library's analog of the paper's Table 1: the
// real (wall-clock) cost of thread creation and of a complete context
// switch in the ult package, measured on the host running the benchmark.
// The paper's SparcStation-10 numbers are printed alongside for context.
type Table1Result struct {
	CreateUS float64
	SwitchUS float64
}

// benchModel is an all-zero cost model so Charge calls do not perturb the
// wall-clock microbenchmarks.
var benchModel = &machine.Model{Name: "bench-zero"}

// RunTable1 measures thread create and context-switch times over iters
// operations each.
func RunTable1(iters int) Table1Result {
	if iters <= 0 {
		iters = 20000
	}
	var res Table1Result

	// Creation: spawn iters threads; each must also run (and be reaped) so
	// the measurement covers a usable thread, like the paper's.
	{
		host := machine.NewRealHost(benchModel)
		s := ult.NewSched(host, &trace.Counters{}, ult.Options{Name: "bench-create"})
		// Table 1 is a real-mode microbenchmark: measuring wall time is
		// the whole point, exactly like the paper's timings.
		//chant:allow-nondet Table 1 measures real elapsed time
		start := time.Now()
		err := s.Run(func() {
			for i := 0; i < iters; i++ {
				s.Spawn("t", func() {})
			}
		})
		if err != nil {
			panic(err)
		}
		//chant:allow-nondet Table 1 measures real elapsed time
		res.CreateUS = float64(time.Since(start).Microseconds()) / float64(iters)
	}

	// Switching: two threads yield back and forth; every yield is one
	// complete context switch (save caller, restore peer).
	{
		host := machine.NewRealHost(benchModel)
		s := ult.NewSched(host, &trace.Counters{}, ult.Options{Name: "bench-switch"})
		var elapsed time.Duration
		var switches uint64
		err := s.Run(func() {
			yielder := func() {
				for i := 0; i < iters; i++ {
					s.Yield()
				}
			}
			a := s.Spawn("a", yielder)
			b := s.Spawn("b", yielder)
			before := s.Counters().FullSwitches.Load()
			//chant:allow-nondet Table 1 measures real elapsed time
			start := time.Now()
			s.Join(a)
			s.Join(b)
			//chant:allow-nondet Table 1 measures real elapsed time
			elapsed = time.Since(start)
			switches = s.Counters().FullSwitches.Load() - before
		})
		if err != nil {
			panic(err)
		}
		if switches == 0 {
			switches = 1
		}
		res.SwitchUS = float64(elapsed.Microseconds()) / float64(switches)
	}
	return res
}
