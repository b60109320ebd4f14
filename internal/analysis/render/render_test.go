package render_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"chant/internal/analysis/load"
	"chant/internal/analysis/registry"
	"chant/internal/analysis/render"
)

// analyze runs the full suite over the ndtaint fixture tree from a fresh
// load, so each call exercises the complete non-deterministic surface:
// package loading, call-graph construction, the taint fixpoint, and
// rendering.
func analyze(t *testing.T) []registry.Finding {
	t.Helper()
	pkgs, err := load.Load("../ndtaint/testdata", "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := registry.RunAll(pkgs, registry.Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	return findings
}

func renderAll(t *testing.T, findings []registry.Finding) (textOut, sarifOut []byte) {
	t.Helper()
	var x, s bytes.Buffer
	if err := render.Text(&x, findings); err != nil {
		t.Fatal(err)
	}
	if err := render.SARIF(&s, findings, registry.Analyzers()); err != nil {
		t.Fatal(err)
	}
	return x.Bytes(), s.Bytes()
}

// TestDeterministicOutput asserts two independent end-to-end runs produce
// byte-identical output in both formats. This is the property CI's SARIF
// artifact and any diff-based tooling depend on.
func TestDeterministicOutput(t *testing.T) {
	x1, s1 := renderAll(t, analyze(t))
	x2, s2 := renderAll(t, analyze(t))
	if !bytes.Equal(x1, x2) {
		t.Errorf("text output differs across runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", x1, x2)
	}
	if !bytes.Equal(s1, s2) {
		t.Errorf("SARIF output differs across runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", s1, s2)
	}
	if len(x1) == 0 || len(s1) == 0 {
		t.Fatal("fixture produced empty output; determinism check is vacuous")
	}
}

// TestFindingsSorted asserts the findings come back in the documented total
// order: file, line, column, analyzer, message.
func TestFindingsSorted(t *testing.T) {
	findings := analyze(t)
	if len(findings) < 2 {
		t.Fatalf("fixture produced %d findings; need at least 2 to check order", len(findings))
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		pa, pb := a.Position(), b.Position()
		switch {
		case pa.Filename < pb.Filename:
		case pa.Filename > pb.Filename:
			t.Fatalf("findings out of order by file: %s after %s", pb.Filename, pa.Filename)
		case pa.Line > pb.Line:
			t.Fatalf("findings out of order by line in %s: %d after %d", pa.Filename, pb.Line, pa.Line)
		}
	}
}

// TestSARIFShape asserts the SARIF log has the fixed 2.1.0 skeleton tools
// like GitHub code scanning require.
func TestSARIFShape(t *testing.T) {
	_, s := renderAll(t, analyze(t))
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(s, &log); err != nil {
		t.Fatalf("SARIF output does not parse: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("SARIF version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "chantvet" {
		t.Fatalf("SARIF log must hold one chantvet run, got %+v", log.Runs)
	}
	rules := make(map[string]bool)
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, res := range log.Runs[0].Results {
		if !rules[res.RuleID] {
			t.Errorf("result references undeclared rule %q", res.RuleID)
		}
	}
	if len(log.Runs[0].Results) == 0 {
		t.Error("fixture tree produced no SARIF results")
	}
}
