// Command chantbench regenerates the paper's evaluation: every table and
// figure of "On the Design of Chant" (Section 4), plus the ablations
// described in DESIGN.md, printed next to the paper's published values.
//
// Usage:
//
//	chantbench                         # run everything, terminal rendering
//	chantbench -exp table3             # one experiment
//	chantbench -report -md             # full Markdown report (EXPERIMENTS.md)
//	chantbench -exp table2 -rounds 2000
//
// Experiments: table1 table2 fig8 table3 table4 table5 fig10 fig11 fig12
// fig13 ablation-testany ablation-fastpath ablation-delivery
// ablation-scaling modern recovery, and all (every one but recovery).
//
// recovery prints the crash-recovery subsystem's simulated, deterministic
// figures: marker overhead, checkpoint capture cost and archive sizes,
// restart-to-rejoin latency. Wall-clock measurements of the library live in
// the benchmark (go run ./benchmark), not here.
//
// -cpuprofile and -memprofile write pprof profiles of whatever was run, so
// performance PRs can attach evidence for the hot spots they claim.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"chant/internal/core"
	"chant/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run is main's body with a normal return path, so the pprof defers fire
// before the process exits.
func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment to run (see package comment)")
		md         = flag.Bool("md", false, "render Markdown instead of terminal tables")
		report     = flag.Bool("report", false, "run everything and emit the full report")
		rounds     = flag.Int("rounds", 0, "table2 exchanges per size (default 500)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
		traceOut   = flag.String("trace-out", "", "run one traced Table-3 polling cell and write its spans as Perfetto/Chrome trace JSON to this file, then exit")
	)
	flag.Parse()

	if *traceOut != "" {
		return writePollingTrace(*traceOut)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chantbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "chantbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chantbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "chantbench: %v\n", err)
			}
		}()
	}

	if *report {
		fmt.Print(experiments.FullReport(*md))
		return 0
	}

	runExp := func(name string) {
		switch name {
		case "table1":
			fmt.Println("Table 1: thread package operations")
			fmt.Print(experiments.FormatTable1(experiments.RunTable1(8000), *md))
		case "table2":
			fmt.Println("Table 2: thread-based point-to-point overhead")
			rows := experiments.RunTable2(experiments.Table2Config{Rounds: *rounds})
			fmt.Print(experiments.FormatTable2(rows, *md))
		case "fig8":
			rows := experiments.RunTable2(experiments.Table2Config{Rounds: *rounds})
			fmt.Print(experiments.FormatFig8(rows))
		case "table3", "table4", "table5":
			beta := experiments.PaperBetaFor[name]
			paper := map[string]experiments.PaperPollingTable{
				"table3": experiments.PaperTable3,
				"table4": experiments.PaperTable4,
				"table5": experiments.PaperTable5,
			}[name]
			fmt.Printf("%s: polling algorithms, beta=%d\n",
				strings.ToUpper(name[:1])+name[1:], beta)
			s := experiments.RunPollingSweep(beta, nil, experiments.StandardPollingBase)
			fmt.Print(experiments.FormatPollingSweep(s, paper, *md))
		case "fig10", "fig11", "fig12", "fig13":
			s := experiments.RunPollingSweep(100, nil, experiments.StandardPollingBase)
			switch name {
			case "fig10":
				fmt.Print(experiments.FormatPollingChart(s, "time", "Figure 10: execution time", "ms"))
			case "fig11":
				fmt.Print(experiments.FormatPollingChart(s, "ctxsw", "Figure 11: context switches", ""))
			case "fig12":
				fmt.Print(experiments.FormatPollingChart(s, "msgtest", "Figure 12: msgtest calls", ""))
			case "fig13":
				fmt.Print(experiments.FormatPollingChart(s, "waiting", "Figure 13: average waiting threads", ""))
			}
		case "ablation-testany":
			fmt.Println("Ablation A: WQ with msgtestany (paper Section 4.2 hypothesis)")
			fmt.Print(experiments.FormatPollingSweep(experiments.RunAblationTestAny(), experiments.PaperTable3, *md))
		case "ablation-fastpath":
			fmt.Println("Ablation B: single-thread yield fast path")
			fmt.Print(experiments.FormatAblationFastPath(experiments.RunAblationFastPath(), *md))
		case "ablation-delivery":
			fmt.Println("Ablation C: delivery designs (Section 3.1)")
			fmt.Print(experiments.FormatAblationDelivery(experiments.RunAblationDelivery(), *md))
		case "modern":
			fmt.Println("Contrast: the polling experiment on a modern cost model")
			s := experiments.RunModernContrast()
			fmt.Print(experiments.FormatPollingSweep(s, nil, *md))
		case "ablation-scaling":
			fmt.Println("Ablation E: polling cost vs thread population")
			fmt.Print(experiments.FormatScaling(experiments.RunScaling(nil), *md))
		case "recovery":
			fmt.Println("Crash recovery: checkpoint capture, marker overhead, rejoin latency")
			r := experiments.RunRecovery()
			fmt.Printf("  baseline run:            %10.3f ms virtual\n", r.BaselineVirtualMS)
			fmt.Printf("  with one checkpoint:     %10.3f ms virtual  (+%.3f%% marker overhead)\n",
				r.CheckpointVirtualMS, r.MarkerOverheadPct)
			fmt.Printf("  capture (initiator):     %10.1f us virtual  (%d + %d checkpoint bytes)\n",
				r.CaptureVirtualUS, r.CheckpointBytesPE0, r.CheckpointBytesPE1)
			fmt.Printf("  restart-to-rejoin:       %10.1f us virtual  (epoch %d, crash run %.3f ms)\n",
				r.RejoinLatencyVirtualUS, r.RestartEpoch, r.CrashRunVirtualMS)
		default:
			fmt.Fprintf(os.Stderr, "chantbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{
			"table1", "table2", "fig8", "table3", "table4", "table5",
			"fig10", "fig11", "fig12", "fig13",
			"ablation-testany", "ablation-fastpath", "ablation-delivery",
			"ablation-scaling", "modern",
		} {
			runExp(name)
		}
		return 0
	}
	runExp(*exp)
	return 0
}

// writePollingTrace runs one span-traced cell of the Table-3 polling
// experiment (the default alpha/beta midpoint under Scheduler polls (PS))
// and writes the trace as Chrome trace_event JSON, loadable at
// ui.perfetto.dev. Virtual timestamps: the file is byte-reproducible.
func writePollingTrace(path string) int {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chantbench: %v\n", err)
		return 1
	}
	cfg := experiments.PollingConfig{
		Alpha:  500,
		Beta:   100,
		Policy: core.SchedulerPollsPS,
	}
	row, n, err := experiments.WritePollingTrace(f, cfg)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "chantbench: trace-out: %v\n", err)
		return 1
	}
	fmt.Printf("chantbench: wrote %d spans to %s (%s, alpha=%d beta=%d: %.2f ms, %d ctxsw, %d msgtest)\n",
		n, path, row.Policy, row.Alpha, row.Beta, row.TimeMS, row.CtxSw, row.MsgTest)
	return 0
}
