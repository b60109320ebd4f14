package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"chant/internal/experiments"
)

// goldenTable3 pins the simulated statistics of the Table-3 grid. A change
// that only speeds the simulator up must leave every one of them
// bit-identical; a change to the model regenerates the file with
// `go run ./benchmark -update-golden` and says so.
//
//go:embed golden_table3.json
var goldenTable3 []byte

// table3Row is one (policy, alpha) cell: the three columns the paper reports.
type table3Row struct {
	Policy  string  `json:"policy"`
	Alpha   int64   `json:"alpha"`
	TimeMS  float64 `json:"time_ms"`
	CtxSw   uint64  `json:"ctxsw"`
	MsgTest uint64  `json:"msgtest"`
}

// table3Beta is Table 3's beta.
const table3Beta = 100

// runTable3 simulates the grid (3 policies x 4 alphas, beta = 100,
// StandardPollingBase) on the sequential kernel, or on the parallel one
// when shards >= 2. The grid has no jitter, so it does not depend on the
// benchmark seed.
func runTable3(shards int) []table3Row {
	base := experiments.StandardPollingBase
	base.Shards = shards
	sweep := experiments.RunPollingSweep(table3Beta, nil, base)
	var rows []table3Row
	for _, pol := range sweep.Policies {
		for _, r := range sweep.Rows[pol] {
			rows = append(rows, table3Row{pol.String(), r.Alpha, r.TimeMS, r.CtxSw, r.MsgTest})
		}
	}
	return rows
}

// table3Totals are the grid's exact-repeat figures.
type table3Totals struct {
	virtualMS   float64 // sum of the Time column: simulated, not host, time
	paperErrPct float64 // mean |ours - paper| / paper over the Time column
	ctxsw       uint64
	msgtest     uint64
}

func totalsOf(rows []table3Row) table3Totals {
	var t table3Totals
	seen := map[string]int{}
	for _, r := range rows {
		t.virtualMS += r.TimeMS
		t.ctxsw += r.CtxSw
		t.msgtest += r.MsgTest
		paper := experiments.PaperTable3[r.Policy][seen[r.Policy]].TimeMS
		seen[r.Policy]++
		t.paperErrPct += math.Abs(r.TimeMS-paper) / paper * 100 / float64(len(rows))
	}
	return t
}

// verifyTable3 checks every cell of the grid against the golden file and
// the parallel kernel against the sequential one. Each compared cell is
// one attempted check.
func verifyTable3(uint64) (attempted, failed int, err error) {
	var golden []table3Row
	if err := json.Unmarshal(goldenTable3, &golden); err != nil {
		return 0, 0, fmt.Errorf("golden_table3.json: %w", err)
	}
	seq, par := runTable3(0), runTable3(2)
	if len(golden) != len(seq) {
		return len(seq), len(seq), fmt.Errorf("golden_table3.json has %d cells, the grid %d", len(golden), len(seq))
	}
	for i := range seq {
		attempted += 2
		if seq[i] != golden[i] {
			failed++
			err = fmt.Errorf("cell %s alpha=%d: got %+v, golden %+v", seq[i].Policy, seq[i].Alpha, seq[i], golden[i])
		}
		if par[i] != seq[i] {
			failed++
			err = fmt.Errorf("cell %s alpha=%d: 2 shards %+v, sequential %+v", seq[i].Policy, seq[i].Alpha, par[i], seq[i])
		}
	}
	return attempted, failed, err
}
