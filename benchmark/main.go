// Command benchmark is the one benchmark every performance or simplicity
// change to this repository is judged by: six kinds of talking-thread
// traffic (eight workloads), three end-to-end metrics per workload, and a
// per-layer ledger that attributes a change in those to one module. See
// README.md for every metric, its estimator and its bound.
//
//	go run ./benchmark --workload pingpong --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload pingpong --seed 1 --seconds 10 --trace 1
//	go run ./benchmark -out set.json             # every workload, both runs
//	go run ./benchmark -compare a.json b.json    # two sets against the bounds
//
// With --workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The exit code is
// non-zero when any op failed or any output was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"chant/internal/trace"
)

// metricDef names a metric and fixes its unit, direction and (for
// end-to-end metrics) the share of the parent's median by which it may
// worsen. BENCHMARK.json repeats this table; a test keeps them equal.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

var endToEnd = []metricDef{
	{"op_p50_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	// The ledger: the same measurement whatever the workload.
	{name: "machine.handoff_ns", unit: "ns", better: "lower"},
	{name: "machine.xcore_rtt_p50_us", unit: "us", better: "lower"},
	{name: "machine.xcore_slow_share", unit: "ratio", better: "lower"},
	{name: "machine.xcore_cpu_us_per_op", unit: "us", better: "lower"},
	{name: "comm.raw_rtt_p50_us", unit: "us", better: "lower"},
	{name: "comm.match_ns", unit: "ns", better: "lower"},
	{name: "memnet.deliver_direct_ns", unit: "ns", better: "lower"},
	{name: "memnet.deliver_queued_ns", unit: "ns", better: "lower"},
	{name: "tcpnet.over_memnet_us", unit: "us", better: "lower"},
	{name: "tcpnet.rtt_p99_us", unit: "us", better: "lower"},
	{name: "tcpnet.oneway_64k_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "ult.yield_switch_ns", unit: "ns", better: "lower"},
	{name: "ult.queue_ns", unit: "ns", better: "lower"},
	{name: "ult.spawn_join_us", unit: "us", better: "lower"},
	{name: "core.thread_overhead_us", unit: "us", better: "lower"},
	{name: "core.policy_rtt_p50_us.tp", unit: "us", better: "lower"},
	{name: "core.policy_rtt_p50_us.ps", unit: "us", better: "lower"},
	{name: "core.policy_rtt_p50_us.wq", unit: "us", better: "lower"},
	{name: "core.rsr_overhead_us", unit: "us", better: "lower"},
	{name: "sim.event_ns", unit: "ns", better: "lower"},
	{name: "sim.proc_switch_ns", unit: "ns", better: "lower"},
	{name: "sim.par2_host_ratio", unit: "ratio", better: "lower"},
	{name: "sim.gomaxprocs2_host_ratio", unit: "ratio", better: "lower"},
	{name: "sim.virtual_ms", unit: "sim-ms", better: "lower"},
	{name: "sim.paper_err_pct", unit: "%", better: "lower"},
	{name: "sim.ctxsw_total", unit: "count", better: "lower"},
	{name: "sim.msgtest_total", unit: "count", better: "lower"},
	{name: "trace.span_ns", unit: "ns", better: "lower"},
	{name: "trace.on_rtt_ratio", unit: "ratio", better: "lower"},
	{name: "recovery.encode_ns", unit: "ns", better: "lower"},
	{name: "recovery.decode_ns", unit: "ns", better: "lower"},
	{name: "recovery.archive_bytes", unit: "bytes", better: "lower"},
	// The workload's own traced run: its tails (ungated: see README.md),
	// counters per op, span time per op.
	{name: "op_p90_us", unit: "us", better: "lower"},
	{name: "op_p99_us", unit: "us", better: "lower"},
	{name: "ult.full_switches_per_op", unit: "count", better: "lower"},
	{name: "ult.partial_switches_per_op", unit: "count", better: "lower"},
	{name: "ult.idle_entries_per_op", unit: "count", better: "lower"},
	{name: "ult.yields_noswitch_per_op", unit: "count", better: "lower"},
	{name: "comm.msgtest_per_op", unit: "count", better: "lower"},
	{name: "comm.msgtest_fail_ratio", unit: "ratio", better: "lower"},
	{name: "comm.testany_scanned_per_op", unit: "count", better: "lower"},
	{name: "comm.early_arrival_share", unit: "ratio", better: "lower"},
	{name: "comm.direct_share", unit: "ratio", better: "higher"},
	{name: "comm.ingress_avg_batch", unit: "count", better: "higher"},
	{name: "comm.unexpected_dropped", unit: "count", better: "lower"},
	{name: "core.rsr_retries", unit: "count", better: "lower"},
	{name: "core.rsr_dups_served", unit: "count", better: "lower"},
	{name: "mem.allocs_per_op", unit: "count", better: "lower"},
	{name: "span.run_us_per_op", unit: "us", better: "lower"},
	{name: "span.blocked_us_per_op", unit: "us", better: "lower"},
	{name: "span.send_us_per_op", unit: "us", better: "lower"},
	{name: "span.match_us_per_op", unit: "us", better: "lower"},
	{name: "span.ingress_drain_us_per_op", unit: "us", better: "lower"},
	{name: "span.rsr_call_us_per_op", unit: "us", better: "lower"},
	{name: "span.rsr_serve_us_per_op", unit: "us", better: "lower"},
	{name: "bench.op_self_us_per_op", unit: "us", better: "lower"},
	{name: "bench.send_us_per_op", unit: "us", better: "lower"},
	{name: "bench.recv_us_per_op", unit: "us", better: "lower"},
	{name: "bench.call_us_per_op", unit: "us", better: "lower"},
	{name: "bench.runpolling_us_per_op", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.dropped_spans", unit: "count", better: "lower"},
}

// metricValue is one measured metric with the evidence behind it.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	N      int     `json:"n,omitempty"`   // samples behind the value
	IQR    float64 `json:"iqr,omitempty"` // inter-quartile distance across trials, in Unit
}

// runResult is one run of one workload: timed (Metrics) or traced (Layers).
type runResult struct {
	Workload   string                 `json:"workload"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Loopback   bool                   `json:"loopback"` // traffic crossed the host's loopback interface
	Trials     int                    `json:"trials"`
	TailPct    float64                `json:"tail_percentile,omitempty"` // traced runs: the percentile op_p99_us reports, below 99 when a trial was short
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics,omitempty"`
	TrialP50US []float64              `json:"trial_p50_us,omitempty"` // timed runs: each trial's median, the evidence behind op_p50_us
	Layers     map[string]metricValue `json:"layers,omitempty"`
	Problem    string                 `json:"problem,omitempty"`
}

// fail records the first thing that went wrong in the run.
func (r *runResult) fail(err error) {
	if err != nil && r.Problem == "" {
		r.Problem = err.Error()
	}
}

// setFile is one full set: every workload, timed and traced.
type setFile struct {
	Note      string       `json:"note,omitempty"`
	HostCores int          `json:"host_cores"`
	GoVersion string       `json:"go_version"`
	Commit    string       `json:"commit"`
	Seed      uint64       `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Runs      []*runResult `json:"runs"`
}

// timedTrials is how many fresh-runtime trials a timed run makes.
const timedTrials = 15

// trialDeadline bounds one trial; ops it has not finished by then count
// as failed.
const trialDeadline = 60 * time.Second

var errDeadline = errors.New("trial deadline passed")

// confineWarned makes the affinity warning print once.
var confineWarned bool

// useProcs pins the process to procs Ps and, for one P, to one CPU (see
// confine). It returns the previous GOMAXPROCS, so that
// `defer useProcs(useProcs(n))` restores it.
func useProcs(procs int) int {
	prev := runtime.GOMAXPROCS(procs)
	if err := confine(procs); err != nil && !confineWarned {
		confineWarned = true
		fmt.Fprintln(os.Stderr, "benchmark: running without CPU confinement:", err)
	}
	return prev
}

// guarded runs one trial under the deadline. A trial that overruns is
// abandoned: its goroutines cannot be stopped, so the caller reports and
// the process exits.
func guarded(w workload, tc trialCfg) trialOut {
	runtime.GC() // the previous trial's garbage is not this trial's set-up cost
	done := make(chan trialOut, 1)
	go func() { done <- w.trial(tc) }()
	select {
	case out := <-done:
		return out
	case <-time.After(trialDeadline):
		return trialOut{err: errDeadline}
	}
}

// runTimed measures w's end-to-end metrics with tracing off.
func runTimed(w workload, seed uint64, seconds float64, trials int) *runResult {
	defer useProcs(useProcs(w.procs))
	res := &runResult{Workload: w.name, GOMAXPROCS: w.procs, Loopback: w.loopback, Trials: trials}
	if w.verify != nil {
		a, f, err := w.verify(seed)
		res.Attempted, res.Failed = a, f
		res.fail(err)
	}

	// Size the trials from a short one: wall time per timed op, and set-up.
	start := time.Now()
	cal := guarded(w, trialCfg{seed: seed, warm: w.warm, ops: w.calib})
	wall := time.Since(start)
	if f := cal.failed(w.calib); f > 0 {
		res.Attempted += w.calib
		res.Failed += f
		res.fail(fmt.Errorf("calibration: %d of %d ops failed: %v", f, w.calib, cal.err))
		return res
	}
	perOp := (wall - cal.setup).Seconds() / float64(w.warm+w.calib)
	ops := max(w.calib, int((seconds/float64(trials)-cal.setup.Seconds())/perOp)-w.warm)

	var samples [][]float64
	var setups []float64
	for t := 0; t < trials; t++ {
		out := guarded(w, trialCfg{seed: seed*1000003 + uint64(t), warm: w.warm, ops: ops})
		res.Attempted += ops
		if f := out.failed(ops); f > 0 {
			res.Failed += f
			res.fail(fmt.Errorf("trial %d: %d of %d ops failed: %v", t, f, ops, out.err))
			if errors.Is(out.err, errDeadline) {
				return res
			}
			continue
		}
		samples = append(samples, kept(out.samples))
		setups = append(setups, out.setup.Seconds())
	}
	if len(samples) == 0 {
		return res
	}
	p50 := p50Of(samples)
	for _, t := range samples {
		res.TrialP50US = append(res.TrialP50US, percentile(t, 50)/1e3)
	}
	res.Metrics = map[string]metricValue{
		"op_p50_us": {Value: p50.Value / 1e3, IQR: p50.IQR / 1e3, N: p50.N},
		"setup_s":   {Value: median(setups), IQR: iqr(setups), N: len(setups)},
	}
	stamp(res.Metrics, endToEnd)
	return res
}

// tracedTrials is how many untraced/traced trial pairs the traced run makes.
const tracedTrials = 3

// tracedRingSlots is each PE's flight-recorder capacity in the traced run;
// workload.traced is sized so that it does not wrap.
const tracedRingSlots = 1 << 19

// runTraced measures the per-layer metrics: ledger is the workload-
// independent part, already measured; to it are added w's own counters and
// spans, from running w with and without the tracer, a fresh runtime each.
// Spans are written under outDir once everything has run.
func runTraced(w workload, seed uint64, ledger map[string]metricValue, outDir string) *runResult {
	res := &runResult{Workload: w.name, GOMAXPROCS: w.procs, Loopback: w.loopback, Trials: tracedTrials}
	layers := make(map[string]metricValue, len(perLayer))
	for k, v := range ledger {
		layers[k] = v
	}
	res.Layers = layers

	defer useProcs(useProcs(w.procs))
	ops := w.traced
	var plain, traced [][]float64
	var allocs []float64
	var last trialOut
	var spans []trace.Span
	var own *spanSet
	var dropped uint64
	perKind := map[trace.SpanKind][]float64{}
	perName := map[string][]float64{}
	for t := 0; t < tracedTrials; t++ {
		tc := trialCfg{seed: seed*1000003 + uint64(t), warm: w.warm, ops: ops}
		off := guarded(w, tc)
		tc.spans = newSpanSet()
		if w.simulated {
			tc.tracer = trace.NewTracer(0) // virtual time: the deterministic span store
		} else {
			tc.tracer = trace.NewFlightTracer(2, tracedRingSlots)
		}
		on := guarded(w, tc)
		res.Attempted += 2 * ops
		if f := off.failed(ops) + on.failed(ops); f > 0 {
			res.Failed += f
			res.fail(fmt.Errorf("traced trial %d: %d ops failed: %v %v", t, f, off.err, on.err))
			if errors.Is(off.err, errDeadline) || errors.Is(on.err, errDeadline) {
				return res
			}
			continue
		}
		plain = append(plain, kept(off.samples))
		traced = append(traced, kept(on.samples))
		allocs = append(allocs, float64(off.mallocs)/float64(ops))
		last, own = on, tc.spans
		spans = tc.tracer.Snapshot()
		dropped += tc.tracer.Dropped()
		for k, v := range runtimeSummary(spans, on.ctrOps) {
			perKind[k] = append(perKind[k], v)
		}
		for k, v := range own.summary(ops) {
			perName[k] = append(perName[k], v)
		}
	}
	if len(plain) == 0 {
		return res
	}
	offP50, onP50 := p50Of(plain), p50Of(traced)
	p90, _ := tailOf(plain, 90)
	p99, pct := tailOf(plain, 99)
	res.TailPct = pct
	layers["op_p90_us"] = metricValue{Value: p90.Value / 1e3, IQR: p90.IQR / 1e3, N: p90.N}
	layers["op_p99_us"] = metricValue{Value: p99.Value / 1e3, IQR: p99.IQR / 1e3, N: p99.N}

	c, n := last.ctr, float64(last.ctrOps)
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set := func(name string, v float64) { layers[name] = metricValue{Value: v, N: onP50.N} }
	set("ult.full_switches_per_op", float64(c.FullSwitches)/n)
	set("ult.partial_switches_per_op", float64(c.PartialSwitches)/n)
	set("ult.idle_entries_per_op", float64(c.IdleEntries)/n)
	set("ult.yields_noswitch_per_op", float64(c.YieldsNoSwitch)/n)
	set("comm.msgtest_per_op", float64(c.MsgTestCalls)/n)
	set("comm.msgtest_fail_ratio", ratio(c.MsgTestFails, c.MsgTestCalls))
	set("comm.testany_scanned_per_op", float64(c.TestAnyScanned)/n)
	set("comm.early_arrival_share", ratio(c.EarlyArrivals, c.Recvs))
	set("comm.direct_share", ratio(last.ingress.direct, last.ingress.direct+last.ingress.messages))
	set("comm.ingress_avg_batch", ratio(last.ingress.messages, last.ingress.batches))
	set("comm.unexpected_dropped", float64(c.UnexpectedDropped))
	set("core.rsr_retries", float64(c.RSRRetries))
	set("core.rsr_dups_served", float64(c.RSRDupsServed))
	set("mem.allocs_per_op", median(allocs))
	for kind, name := range map[trace.SpanKind]string{
		trace.SpanRun: "run", trace.SpanBlocked: "blocked", trace.SpanSend: "send", trace.SpanMatch: "match",
		trace.SpanIngressDrain: "ingress_drain", trace.SpanRSRCall: "rsr_call", trace.SpanRSRServe: "rsr_serve",
	} {
		set("span."+name+"_us_per_op", medianOrZero(perKind[kind]))
	}
	for span, name := range map[string]string{
		"op": "op_self", "Thread.Send": "send", "Thread.Recv": "recv", "Thread.Call": "call",
		"experiments.RunPolling": "runpolling",
	} {
		set("bench."+name+"_us_per_op", medianOrZero(perName[span]))
	}
	set("trace.overhead_pct", (onP50.Value/offP50.Value-1)*100)
	set("trace.dropped_spans", float64(dropped))
	if c.UnexpectedDropped+c.RSRRetries+c.RSRDupsServed > 0 {
		res.Failed++
		res.fail(fmt.Errorf("unexpected drops %d, RSR retries %d, RSR duplicates %d: all must be 0",
			c.UnexpectedDropped, c.RSRRetries, c.RSRDupsServed))
	}
	stamp(layers, perLayer)
	res.fail(writeSpans(outDir, w.name, own, spans))
	return res
}

func medianOrZero(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return median(vs)
}

// stamp fills in each value's unit and direction from its definition.
func stamp(values map[string]metricValue, defs []metricDef) {
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			v.Unit, v.Better = d.unit, d.better
			values[d.name] = v
		}
	}
}

// report prints the run for people, then the contract's result line.
func report(res *runResult, values map[string]metricValue, defs []metricDef) {
	fmt.Printf("workload %s  gomaxprocs=%d  host_cores=%d  %s  trials=%d  attempted=%d failed=%d",
		res.Workload, res.GOMAXPROCS, runtime.NumCPU(), runtime.Version(), res.Trials, res.Attempted, res.Failed)
	if res.Loopback {
		fmt.Print("  traffic crossed the loopback interface")
	}
	fmt.Println()
	if res.Problem != "" {
		fmt.Println("problem:", res.Problem)
	}
	if len(res.TrialP50US) > 0 {
		fmt.Printf("per-trial p50 (us): %.3f\n", res.TrialP50US)
	}
	fmt.Printf("%-32s %14s %-7s %-7s %10s %8s\n", "metric", "value", "unit", "better", "samples", "spread")
	line := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			continue
		}
		spread := 0.0
		if v.Value != 0 {
			spread = math.Abs(v.IQR / v.Value)
		}
		fmt.Printf("%-32s %14.6g %-7s %-7s %10d %7.1f%%\n", d.name, v.Value, v.Unit, v.Better, v.N, spread*100)
		line[d.name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	last, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": line,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(last))
}

// finish settles correctness: every op succeeded and every metric of the
// run's kind was measured.
func finish(res *runResult, values map[string]metricValue, defs []metricDef) {
	res.Correct = res.Failed == 0 && res.Problem == "" && res.Attempted > 0
	for _, d := range defs {
		if _, ok := values[d.name]; !ok {
			res.Correct = false
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs every workload, timed and traced, as one set")
		seed    = flag.Uint64("seed", 1, "seed for payload bytes, compute jitter and the simulated program")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the ledger and a traced run")
		out     = flag.String("out", "", "with no -workload: write the set to this file instead of standard output")
		compare = flag.Bool("compare", false, "compare two set files given as arguments against the bounds; non-zero exit on a breach")
		golden  = flag.Bool("update-golden", false, "rewrite benchmark/golden_table3.json from the current simulator")
	)
	flag.Parse()
	outDir := "benchmark/out"

	switch {
	case *golden:
		data, err := json.MarshalIndent(runTable3(0), "", " ")
		if err == nil {
			err = os.WriteFile("benchmark/golden_table3.json", append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
	case *name != "":
		w, ok := find(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
			os.Exit(2)
		}
		res := one(w, *seed, *seconds, *traced != 0, nil, outDir)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		set := setFile{
			HostCores: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit(),
			Seed: *seed, Seconds: *seconds,
		}
		shared, err := ledger(*seed, *seconds/10)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		correct := true
		for _, w := range workloads() {
			for _, tr := range []bool{false, true} {
				res := one(w, *seed, *seconds, tr, shared, outDir)
				set.Runs = append(set.Runs, res)
				correct = correct && res.Correct
			}
		}
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil && *out != "" {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if *out == "" {
			fmt.Println(string(data))
		}
		if !correct {
			os.Exit(1)
		}
	}
}

func find(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// one makes one run and prints it. A traced run measures the ledger first
// unless the caller already has.
func one(w workload, seed uint64, seconds float64, traced bool, ledgerDone map[string]metricValue, outDir string) *runResult {
	if !traced {
		res := runTimed(w, seed, seconds, timedTrials)
		finish(res, res.Metrics, endToEnd)
		report(res, res.Metrics, endToEnd)
		return res
	}
	if ledgerDone == nil {
		var err error
		if ledgerDone, err = ledger(seed, seconds/10); err != nil {
			res := &runResult{Workload: w.name, Attempted: 1, Failed: 1, Problem: err.Error()}
			report(res, nil, perLayer)
			return res
		}
	}
	res := runTraced(w, seed, ledgerDone, outDir)
	finish(res, res.Layers, perLayer)
	report(res, res.Layers, perLayer)
	return res
}
