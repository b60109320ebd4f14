package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fixture is a module whose detfixture package is known to violate detlint.
const (
	fixtureDir = "../../internal/analysis/detlint/testdata"
	fixturePkg = "./internal/sim/detfixture"
)

// chantvet runs the command from dir and returns its exit status and output.
func chantvet(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	t.Chdir(dir)
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestTreeIsClean is the self-check CI's chantvet-self job also makes: every
// analyzer over the whole module, no finding.
func TestTreeIsClean(t *testing.T) {
	code, stdout, stderr := chantvet(t, "../..", "./...")
	if code != 0 || stdout != "" || stderr != "" {
		t.Errorf("chantvet ./... over the module: exit %d, want 0 and no output\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestFindingsExitTwoWithTextLines(t *testing.T) {
	code, stdout, stderr := chantvet(t, fixtureDir, fixturePkg)
	if code != 2 {
		t.Errorf("exit %d over a failing fixture, want 2", code)
	}
	if stdout != "" {
		t.Errorf("text mode wrote to stdout:\n%s", stdout)
	}
	want := "/detfixture.go:17:9: detlint: time.Now in simulation-critical package chant/internal/sim/detfixture: " +
		"the wall clock is nondeterministic; use the Host/sim clock\n"
	if !strings.Contains(stderr, want) {
		t.Errorf("stderr lacks the line %q:\n%s", want, stderr)
	}
}

func TestSARIFOneResultPerFinding(t *testing.T) {
	_, _, text := chantvet(t, fixtureDir, fixturePkg)
	findings := strings.Count(text, "\n")

	code, stdout, stderr := chantvet(t, ".", "-sarif", fixturePkg)
	if code != 2 || stderr != "" {
		t.Errorf("-sarif over a failing fixture: exit %d, stderr %q; want 2 and none", code, stderr)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("-sarif output does not parse: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("SARIF version %q with %d runs, want 2.1.0 with 1", log.Version, len(log.Runs))
	}
	if got := len(log.Runs[0].Results); got != findings || got == 0 {
		t.Errorf("%d SARIF results for %d text findings", got, findings)
	}
}

// TestRetiredFlagsRejected pins the surface at one flag: what the go vet
// shim, the fix engine and the JSON format used to accept is now a usage
// error.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-fix", "-json", "-V=full", "-flags", "-detlint"} {
		code, stdout, stderr := chantvet(t, ".", flag)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "usage: chantvet [-sarif] [packages]") {
			t.Errorf("chantvet %s: exit %d, stdout %q, stderr:\n%s\nwant exit 2 with the usage text", flag, code, stdout, stderr)
		}
	}
	code, _, usage := chantvet(t, ".", "-h")
	if code != 0 {
		t.Errorf("chantvet -h: exit %d, want 0", code)
	}
	if n := strings.Count(usage, "\n  -"); n != 1 || !strings.Contains(usage, "\n  -sarif\n") {
		t.Errorf("chantvet -h lists %d flags, want exactly -sarif:\n%s", n, usage)
	}
}
