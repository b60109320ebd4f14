package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactLayers are per-layer figures that repeat exactly on one commit:
// simulated statistics, not host time. Two sets of the same commit must
// agree on them to the last digit.
var exactLayers = []string{"sim.virtual_ms", "sim.paper_err_pct", "sim.ctxsw_total", "sim.msgtest_total"}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets prints, for every workload and end-to-end metric, the value
// in set a (the parent) and in set b (the change), by how much b is worse,
// and the bound; it reports whether every pairing stays within its bound,
// every run was correct and the exact figures agree.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  %d cores  %s  seed %d\n", pathA, a.Commit, a.HostCores, a.GoVersion, a.Seed)
	fmt.Fprintf(w, "b: %s  commit %s  %d cores  %s  seed %d\n", pathB, b.Commit, b.HostCores, b.GoVersion, b.Seed)
	fmt.Fprintf(w, "%-14s %-12s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")

	inB := map[string]*runResult{}
	for _, r := range b.Runs {
		inB[runKey(r)] = r
	}
	ok := true
	for _, ra := range a.Runs {
		rb := inB[runKey(ra)]
		if rb == nil {
			fmt.Fprintf(w, "%-14s missing from b\n", runKey(ra))
			ok = false
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-14s incorrect run (a: %v, b: %v)\n", runKey(ra), ra.Correct, rb.Correct)
			ok = false
		}
		for _, d := range endToEnd {
			va, okA := ra.Metrics[d.name]
			vb, okB := rb.Metrics[d.name]
			if !okA || !okB {
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.bound {
				verdict = "  BREACH"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				ra.Workload, d.name, va.Value, vb.Value, worse*100, d.bound*100, verdict)
		}
		for _, name := range exactLayers {
			va, okA := ra.Layers[name]
			vb, okB := rb.Layers[name]
			if okA && okB && va.Value != vb.Value {
				fmt.Fprintf(w, "%-14s %-12s %14v %14v  must repeat exactly  BREACH\n", ra.Workload, name, va.Value, vb.Value)
				ok = false
			}
		}
	}
	return ok, nil
}

// runKey tells a workload's timed run from its traced one.
func runKey(r *runResult) string {
	if r.Layers != nil {
		return r.Workload + "/traced"
	}
	return r.Workload
}
