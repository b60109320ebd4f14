package main

import (
	"bytes"
	"cmp"
	"os/exec"
	"strings"
	"testing"

	"chant/internal/analysis"
	"chant/internal/analysis/load"
)

// fixture is a module whose packages are known to violate detlint.
const (
	fixtureDir = "../../internal/analysis/detlint/testdata"
	fixturePkg = "./internal/sim/detfixture"
)

// chantvet runs the command from dir and returns its exit status and output.
func chantvet(t *testing.T, dir string, args ...string) (code int, stderr string) {
	t.Helper()
	t.Chdir(dir)
	var errw bytes.Buffer
	code = run(args, &errw)
	return code, errw.String()
}

// TestTreeIsClean is the self-check CI's chantvet-self job also makes: every
// analyzer over the whole module, no finding. It also runs go vet's copylocks
// pass, which go test's own vet subset leaves out: a by-value copy of
// trace.Counters or trace.Log (each holds atomics or a mutex) forks the
// instrument, and copylocks is the check that reports it.
func TestTreeIsClean(t *testing.T) {
	code, stderr := chantvet(t, "../..", "./...")
	if code != 0 || stderr != "" {
		t.Errorf("chantvet ./... over the module: exit %d, want 0 and no output\n%s", code, stderr)
	}
	// chantvet's t.Chdir left the test in the module root.
	if out, err := exec.Command("go", "vet", "-copylocks", "./...").CombinedOutput(); err != nil || len(out) != 0 {
		t.Errorf("go vet -copylocks ./... over the module: %v, want success and no output\n%s", err, out)
	}
}

func TestFindingsExitTwoWithTextLines(t *testing.T) {
	code, stderr := chantvet(t, fixtureDir, fixturePkg)
	if code != 2 {
		t.Errorf("exit %d over a failing fixture, want 2", code)
	}
	want := "/detfixture.go:17:9: detlint: time.Now in simulation-critical package chant/internal/sim/detfixture: " +
		"the wall clock is nondeterministic; use the Host/sim clock\n"
	if !strings.Contains(stderr, want) {
		t.Errorf("stderr lacks the line %q:\n%s", want, stderr)
	}
}

// TestRetiredFlagsRejected pins the surface at no flags: what the go vet
// shim, the fix engine, the JSON format and the SARIF log used to accept is
// now a usage error.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-fix", "-json", "-V=full", "-flags", "-detlint", "-sarif"} {
		code, stderr := chantvet(t, ".", flag)
		if code != 2 || !strings.Contains(stderr, "usage: chantvet [packages]") {
			t.Errorf("chantvet %s: exit %d, stderr:\n%s\nwant exit 2 with the usage text", flag, code, stderr)
		}
	}
	code, usage := chantvet(t, ".", "-h")
	if code != 0 {
		t.Errorf("chantvet -h: exit %d, want 0", code)
	}
	if n := strings.Count(usage, "\n  -"); n != 0 {
		t.Errorf("chantvet -h lists %d flags, want none:\n%s", n, usage)
	}
}

// TestDeterministicOutput asserts two independent end-to-end runs over the
// whole fixture module print byte-identical text.
func TestDeterministicOutput(t *testing.T) {
	_, first := chantvet(t, fixtureDir, "./...")
	_, second := chantvet(t, ".", "./...") // still in the fixture module
	if first != second {
		t.Errorf("output differs across runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}
	if first == "" {
		t.Fatal("fixture produced empty output; determinism check is vacuous")
	}
}

// TestFindingsSorted asserts the findings come back in the documented total
// order: file, line, column, analyzer, message.
func TestFindingsSorted(t *testing.T) {
	pkgs, err := load.Load(fixtureDir, "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := analysis.RunAll(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	if len(findings) < 2 {
		t.Fatalf("fixture produced %d findings; need at least 2 to check order", len(findings))
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		pa, pb := a.Position(), b.Position()
		if cmp.Or(cmp.Compare(pa.Filename, pb.Filename), cmp.Compare(pa.Line, pb.Line),
			cmp.Compare(pa.Column, pb.Column), cmp.Compare(a.Analyzer, b.Analyzer),
			cmp.Compare(a.Message, b.Message)) > 0 {
			t.Fatalf("findings out of order: %s %s after %s %s", pb, b.Message, pa, a.Message)
		}
	}
}

// TestSubtreeRunIsExact pins the per-package property the docs rely on: a run
// over a sub-tree reports exactly the whole-module findings under it.
func TestSubtreeRunIsExact(t *testing.T) {
	_, all := chantvet(t, fixtureDir, "./...")
	var want []string
	for _, line := range strings.SplitAfter(all, "\n") {
		if strings.Contains(line, "/internal/sim/") {
			want = append(want, line)
		}
	}
	if len(want) == 0 {
		t.Fatal("the whole-module run reports nothing under internal/sim; the check is vacuous")
	}
	code, sub := chantvet(t, ".", "./internal/sim/...") // still in the fixture module
	if code != 2 || sub != strings.Join(want, "") {
		t.Errorf("chantvet ./internal/sim/...: exit %d with\n%s\nwant exit 2 with the ./... findings under internal/sim:\n%s", code, sub, strings.Join(want, ""))
	}
}
