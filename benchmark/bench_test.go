package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
}

// TestTailPercent: the tail is p99 only when ten samples lie beyond it,
// else the highest whole percentile that has ten beyond.
func TestTailPercent(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2000, 99}, {1000, 99}, {999, 98}, {500, 98}, {499, 97}, {100, 90}, {25, 60}, {20, 50}, {5, 50}} {
		got := tailPercent(c.n)
		if got != c.want {
			t.Errorf("tailPercent(%d) = %v, want %v", c.n, got, c.want)
		}
		rank := int(math.Ceil(got / 100 * float64(c.n)))
		if got > 50 && c.n-rank < tailBeyond {
			t.Errorf("tailPercent(%d) = %v leaves only %d samples beyond", c.n, got, c.n-rank)
		}
	}
}

// TestMedianAndIQR checks against Python's statistics.median and
// statistics.quantiles(v, n=4), which the acceptance driver uses.
func TestMedianAndIQR(t *testing.T) {
	v := []float64{7, 1, 3, 10, 4, 8, 2, 9, 6, 5}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := iqr(v); got != 8.25-2.75 { // quantiles -> [2.75, 5.5, 8.25]
		t.Errorf("iqr = %v, want 5.5", got)
	}
	odd := []float64{5, 1, 9}
	if got := median(odd); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := iqr(odd); got != 8 { // quantiles -> [1, 5, 9]
		t.Errorf("iqr = %v, want 8", got)
	}
	if got := iqr([]float64{2, 4}); got != 4.5-1.5 { // quantiles -> [1.5, 3, 4.5]
		t.Errorf("iqr of two = %v, want 3", got)
	}
	if v[0] != 7 {
		t.Error("median or iqr reordered its input")
	}
}

// TestMedianOfTrials: one trial wrecked by a stall moves neither estimate.
func TestMedianOfTrials(t *testing.T) {
	trial := func(shift float64) []int64 {
		ns := make([]int64, 2300)
		for i := range ns {
			ns[i] = int64(shift) + int64(i%100)
		}
		return ns
	}
	trials := [][]float64{kept(trial(1000)), kept(trial(1000)), kept(trial(1e6)), kept(trial(1000)), kept(trial(1000))}
	if n := len(trials[0]); n != 2070 {
		t.Fatalf("kept %d of 2300 samples, want 2070 (first 10%% dropped)", n)
	}
	p50 := p50Of(trials)
	tail, pct := tailOf(trials, 99)
	if pct != 99 {
		t.Errorf("tail percentile = %v, want 99", pct)
	}
	if p50.Value != 1050 || tail.Value != 1099 {
		t.Errorf("p50 = %v, tail = %v; want 1050 and 1099", p50.Value, tail.Value)
	}
	if p50.N != 5*2070 {
		t.Errorf("sample count = %d, want %d", p50.N, 5*2070)
	}
	short := append(trials, kept(trial(1000)[:300]))
	if _, pct := tailOf(short, 99); pct != tailPercent(270) {
		t.Errorf("a short trial must lower every trial's tail percentile, got %v", pct)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads() {
		check("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check("metric", d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better %q", d.name, d.better)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// equal: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if strings.Join(spec.Command, " ") != "go run ./benchmark" {
		t.Errorf("command = %v", spec.Command)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, package {%s %s}", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the package %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, package %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound mismatch", kind, d.name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at tiny op counts, timed and traced, so
// that an internal API change that breaks the benchmark fails here and not
// in the next performance change. It also checks that each run emits
// exactly the metrics BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	layers, err := ledger(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		w.warm, w.calib, w.traced = 8, 40, 40
		if w.simulated {
			w.warm, w.calib, w.traced = 1, 3, 2
		}
		timed := runTimed(w, 1, 0, 2)
		finish(timed, timed.Metrics, endToEnd)
		if !timed.Correct {
			t.Errorf("%s timed: %+v", w.name, timed)
		}
		if len(timed.Metrics) != len(endToEnd) {
			t.Errorf("%s timed: %d metrics, want %d", w.name, len(timed.Metrics), len(endToEnd))
		}
		traced := runTraced(w, 1, layers, out)
		finish(traced, traced.Layers, perLayer)
		if !traced.Correct {
			t.Errorf("%s traced: %s (attempted %d, failed %d)", w.name, traced.Problem, traced.Attempted, traced.Failed)
		}
		if len(traced.Layers) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", w.name, len(traced.Layers), len(perLayer))
		}
		for _, suffix := range []string{".spans.json", ".perfetto.json"} {
			if st, err := os.Stat(filepath.Join(out, w.name+suffix)); err != nil || st.Size() == 0 {
				t.Errorf("%s: span file %s missing or empty", w.name, suffix)
			}
		}
	}
}

// TestCompare: a set against itself passes; a breach of a bound, a failed
// run and a moved simulated statistic each fail.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, virtual float64, correct bool) string {
		set := setFile{Runs: []*runResult{
			{Workload: "pingpong", Correct: correct, Attempted: 1, Metrics: map[string]metricValue{
				"op_p50_us": {Value: p50, Unit: "us"}, "setup_s": {Value: 0.01, Unit: "s"}}},
			{Workload: "pingpong", Correct: true, Attempted: 1, Layers: map[string]metricValue{
				"sim.virtual_ms": {Value: virtual}}},
		}}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 10, 1000, true)
	for _, c := range []struct {
		name string
		path string
		ok   bool
	}{
		{"same", base, true},
		{"within bound", write("b.json", 12.4, 1000, true), true},
		{"faster", write("c.json", 5, 1000, true), true},
		{"breach", write("d.json", 12.6, 1000, true), false},
		{"incorrect", write("e.json", 10, 1000, false), false},
		{"simulated statistic moved", write("f.json", 10, 1000.5, true), false},
	} {
		var buf bytes.Buffer
		ok, err := compareSets(&buf, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", c.name, ok, c.ok, buf.String())
		}
	}
}
