package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"chant/internal/trace"
)

// The traced run records two kinds of span. The benchmark's own spans
// bracket every call it makes into a layer (Thread.Send, Thread.Recv,
// Thread.Call, experiments.RunPolling), each child naming the op span that
// caused it. The runtime's flight tracer, attached through
// core.Config.Tracer, records what happens below those calls. Both stay in
// memory until the run ends and are then written under benchmark/out/.

// span is one interval recorded by the benchmark itself. Start and End are
// nanoseconds since the span set was created; Parent indexes the written
// list, -1 for an op span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
	PE     int    `json:"pe"`
}

// spanLog is one PE's spans. The threads of a PE run one at a time, so a
// log needs no lock; two PEs never share one.
type spanLog struct {
	base  time.Time
	pe    int
	spans []span
}

// spanSet holds one log per PE.
type spanSet struct{ logs [2]spanLog }

func newSpanSet() *spanSet {
	now := time.Now()
	s := &spanSet{}
	for pe := range s.logs {
		s.logs[pe] = spanLog{base: now, pe: pe}
	}
	return s
}

// log returns pe's log, or nil when spans are off, so call sites test one
// pointer.
func (s *spanSet) log(pe int) *spanLog {
	if s == nil {
		return nil
	}
	return &s.logs[pe]
}

// add appends a span and returns its index for children to name.
func (l *spanLog) add(name string, parent, op int, start, end time.Time) int {
	l.spans = append(l.spans, span{
		Name: name, Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base)),
		Parent: parent, OpID: op, PE: l.pe,
	})
	return len(l.spans) - 1
}

// summary totals the benchmark's own spans per name, in microseconds per
// op. An op span's figure is its self time: its duration minus its
// children's.
func (s *spanSet) summary(ops int) map[string]float64 {
	total := map[string]float64{}
	for pe := range s.logs {
		spans := s.logs[pe].spans
		self := make([]int64, len(spans))
		for i, sp := range spans {
			self[i] += sp.End - sp.Start
			if sp.Parent >= 0 {
				self[sp.Parent] -= sp.End - sp.Start
			}
		}
		for i, sp := range spans {
			total[sp.Name] += float64(self[i]) / 1e3 / float64(ops)
		}
	}
	return total
}

// cpuKinds are the runtime span kinds during which a PE's processor is
// occupied; they nest (a send happens inside a run), so each gets self
// time. The remaining kinds are waits and are reported whole.
var cpuKinds = map[trace.SpanKind]bool{
	trace.SpanRun: true, trace.SpanSend: true, trace.SpanIngressDrain: true, trace.SpanRSRServe: true,
}

// runtimeSummary totals the flight tracer's spans per kind in microseconds
// per op. For the processor-occupying kinds the figure is self time: a
// span's duration minus whatever spans of those kinds it contains on the
// same PE.
func runtimeSummary(spans []trace.Span, ops int) map[trace.SpanKind]float64 {
	total := map[trace.SpanKind]float64{}
	perPE := map[int32][]trace.Span{}
	for _, sp := range spans {
		if cpuKinds[sp.Kind] {
			perPE[sp.PE] = append(perPE[sp.PE], sp)
		} else {
			total[sp.Kind] += float64(sp.End - sp.Begin)
		}
	}
	for _, list := range perPE {
		// Outer spans first: earlier begin, and for equal begins the longer.
		sort.Slice(list, func(i, j int) bool {
			if list[i].Begin != list[j].Begin {
				return list[i].Begin < list[j].Begin
			}
			return list[i].End > list[j].End
		})
		self := make([]int64, len(list))
		var stack []int
		for i, sp := range list {
			for len(stack) > 0 && list[stack[len(stack)-1]].End < sp.End {
				stack = stack[:len(stack)-1]
			}
			d := int64(sp.End - sp.Begin)
			self[i] += d
			if len(stack) > 0 {
				self[stack[len(stack)-1]] -= d
			}
			stack = append(stack, i)
		}
		for i, sp := range list {
			total[sp.Kind] += float64(self[i])
		}
	}
	for k := range total {
		total[k] = total[k] / 1e3 / float64(ops)
	}
	return total
}

// writeSpans writes the benchmark's spans as JSON and the runtime's as
// Perfetto trace_event JSON (ui.perfetto.dev) under dir.
func writeSpans(dir, workload string, own *spanSet, runtimeSpans []trace.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Parents index their own PE's log; shift them to index the merged list.
	var all []span
	for pe := range own.logs {
		offset := len(all)
		for _, sp := range own.logs[pe].spans {
			if sp.Parent >= 0 {
				sp.Parent += offset
			}
			all = append(all, sp)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".spans.json"), data, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".perfetto.json"))
	if err != nil {
		return err
	}
	if err := trace.ExportTraceJSON(f, runtimeSpans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
