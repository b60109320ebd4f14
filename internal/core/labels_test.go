package core

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"

	"chant/internal/comm"
	"chant/internal/machine"
	"chant/internal/ult"
)

// TestThreadsCarryPprofLabels: every thread of a real-mode process runs on a
// coroutine goroutine of its own, created at its first switch-in. It must
// still show up in CPU profiles under its PE's pe/policy/phase labels, which
// a new goroutine inherits from the one that creates it: the goroutine inside
// Sched.Run, for main and for a thread spawned later alike.
func TestThreadsCarryPprofLabels(t *testing.T) {
	// labelsHere returns the labels line of the calling goroutine's record in
	// the goroutine profile: the one goroutine that is inside WriteTo.
	labelsHere := func() string {
		var buf bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&buf, 1)
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(rec, "pprof.(*Profile).WriteTo") {
				for _, line := range strings.Split(rec, "\n") {
					if strings.HasPrefix(line, "# labels:") {
						return line
					}
				}
			}
		}
		return ""
	}
	got := map[string]string{}
	rt := NewRealRuntime(Topology{PEs: 1, ProcsPerPE: 1}, Config{Policy: SchedulerPollsPS}, machine.Modern())
	_, err := rt.Run(map[comm.Addr]MainFunc{{PE: 0, Proc: 0}: func(th *Thread) {
		got["main"] = labelsHere()
		w := th.Process().CreateLocal("worker", func(*Thread) {
			got["worker"] = labelsHere()
		}, ult.SpawnOpts{})
		th.JoinLocal(w)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, who := range []string{"main", "worker"} {
		for _, want := range []string{`"pe":"0"`, `"policy":"` + SchedulerPollsPS.String() + `"`, `"phase":"run"`} {
			if !strings.Contains(got[who], want) {
				t.Errorf("%s thread's goroutine labels %q lack %s", who, got[who], want)
			}
		}
	}
}
