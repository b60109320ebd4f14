// The field table: one entry per Snapshot field, written out by hand so
// neither the metrics path nor the counter plumbing needs reflection. It is
// the one place the event-counter set is listed besides the two struct
// declarations: Snap, Preload, Snapshot.Add and the checkpoint codec all walk
// it. TestSnapshotFieldsComplete holds the table to the struct with
// reflection — adding a Snapshot field without a table row fails the build's
// tests, which is the "generated" discipline without a generator.
package trace

import "sync/atomic"

// MetricKind distinguishes monotonic counters from point-in-time gauges.
type MetricKind uint8

const (
	// MetricCounter is a monotonically increasing count.
	MetricCounter MetricKind = iota
	// MetricGauge is a value that can move both ways.
	MetricGauge
)

func (k MetricKind) String() string {
	if k == MetricGauge {
		return "gauge"
	}
	return "counter"
}

// MetricField maps one Snapshot field to its exported metric and, for an
// event counter, to its storage in both structs.
type MetricField struct {
	// Field is the Go field name in Snapshot (the coverage test's key).
	Field string
	// Name is the Prometheus series name.
	Name string
	// Kind selects the Prometheus TYPE line.
	Kind MetricKind
	// Help is the HELP line.
	Help string
	// Gauge reads a computed (non-counter) field; nil for event counters.
	Gauge func(*Snapshot) float64
	// Live and Count locate an event counter in Counters and in Snapshot;
	// nil for the waiting-thread statistics, which are computed, not counted.
	Live  func(*Counters) *atomic.Uint64
	Count func(*Snapshot) *uint64
}

// Value reads the field from a snapshot.
func (f MetricField) Value(s *Snapshot) float64 {
	if f.Count != nil {
		return float64(*f.Count(s))
	}
	return f.Gauge(s)
}

// SnapshotFields lists every Snapshot field in declaration order.
var SnapshotFields = []MetricField{
	{"FullSwitches", "chant_full_switches_total", MetricCounter, "complete context switches (restore of a different thread)", nil, func(c *Counters) *atomic.Uint64 { return &c.FullSwitches }, func(s *Snapshot) *uint64 { return &s.FullSwitches }},
	{"PartialSwitches", "chant_partial_switches_total", MetricCounter, "TCB inspections without a restore (Scheduler polls (PS))", nil, func(c *Counters) *atomic.Uint64 { return &c.PartialSwitches }, func(s *Snapshot) *uint64 { return &s.PartialSwitches }},
	{"Yields", "chant_yields_total", MetricCounter, "yield calls", nil, func(c *Counters) *atomic.Uint64 { return &c.Yields }, func(s *Snapshot) *uint64 { return &s.Yields }},
	{"YieldsNoSwitch", "chant_yields_no_switch_total", MetricCounter, "yields that returned immediately (no other ready thread)", nil, func(c *Counters) *atomic.Uint64 { return &c.YieldsNoSwitch }, func(s *Snapshot) *uint64 { return &s.YieldsNoSwitch }},
	{"IdleEntries", "chant_idle_entries_total", MetricCounter, "times the scheduler found nothing runnable", nil, func(c *Counters) *atomic.Uint64 { return &c.IdleEntries }, func(s *Snapshot) *uint64 { return &s.IdleEntries }},
	{"ThreadsCreated", "chant_threads_created_total", MetricCounter, "threads created", nil, func(c *Counters) *atomic.Uint64 { return &c.ThreadsCreated }, func(s *Snapshot) *uint64 { return &s.ThreadsCreated }},
	{"Sends", "chant_sends_total", MetricCounter, "messages sent", nil, func(c *Counters) *atomic.Uint64 { return &c.Sends }, func(s *Snapshot) *uint64 { return &s.Sends }},
	{"Recvs", "chant_recvs_total", MetricCounter, "completed receives", nil, func(c *Counters) *atomic.Uint64 { return &c.Recvs }, func(s *Snapshot) *uint64 { return &s.Recvs }},
	{"RecvImmediate", "chant_recv_immediate_total", MetricCounter, "receives matched at post time", nil, func(c *Counters) *atomic.Uint64 { return &c.RecvImmediate }, func(s *Snapshot) *uint64 { return &s.RecvImmediate }},
	{"EarlyArrivals", "chant_early_arrivals_total", MetricCounter, "messages buffered in the unexpected queue", nil, func(c *Counters) *atomic.Uint64 { return &c.EarlyArrivals }, func(s *Snapshot) *uint64 { return &s.EarlyArrivals }},
	{"BytesSent", "chant_bytes_sent_total", MetricCounter, "payload bytes sent", nil, func(c *Counters) *atomic.Uint64 { return &c.BytesSent }, func(s *Snapshot) *uint64 { return &s.BytesSent }},
	{"MsgTestCalls", "chant_msgtest_calls_total", MetricCounter, "msgtest attempts", nil, func(c *Counters) *atomic.Uint64 { return &c.MsgTestCalls }, func(s *Snapshot) *uint64 { return &s.MsgTestCalls }},
	{"MsgTestFails", "chant_msgtest_fails_total", MetricCounter, "msgtest attempts that found the operation incomplete", nil, func(c *Counters) *atomic.Uint64 { return &c.MsgTestFails }, func(s *Snapshot) *uint64 { return &s.MsgTestFails }},
	{"TestAnyCalls", "chant_testany_calls_total", MetricCounter, "msgtestany calls", nil, func(c *Counters) *atomic.Uint64 { return &c.TestAnyCalls }, func(s *Snapshot) *uint64 { return &s.TestAnyCalls }},
	{"TestAnyScanned", "chant_testany_scanned_total", MetricCounter, "outstanding requests examined across testany calls", nil, func(c *Counters) *atomic.Uint64 { return &c.TestAnyScanned }, func(s *Snapshot) *uint64 { return &s.TestAnyScanned }},
	{"RSRRequests", "chant_rsr_requests_total", MetricCounter, "remote service requests served", nil, func(c *Counters) *atomic.Uint64 { return &c.RSRRequests }, func(s *Snapshot) *uint64 { return &s.RSRRequests }},
	{"RSRSent", "chant_rsr_sent_total", MetricCounter, "remote service requests issued", nil, func(c *Counters) *atomic.Uint64 { return &c.RSRSent }, func(s *Snapshot) *uint64 { return &s.RSRSent }},
	{"NullsSent", "chant_nulls_sent_total", MetricCounter, "CMB null messages emitted", nil, func(c *Counters) *atomic.Uint64 { return &c.NullsSent }, func(s *Snapshot) *uint64 { return &s.NullsSent }},
	{"FaultDrops", "chant_fault_drops_total", MetricCounter, "outbound messages dropped by the fault plane", nil, func(c *Counters) *atomic.Uint64 { return &c.FaultDrops }, func(s *Snapshot) *uint64 { return &s.FaultDrops }},
	{"FaultDups", "chant_fault_dups_total", MetricCounter, "outbound messages duplicated by the fault plane", nil, func(c *Counters) *atomic.Uint64 { return &c.FaultDups }, func(s *Snapshot) *uint64 { return &s.FaultDups }},
	{"FaultDelays", "chant_fault_delays_total", MetricCounter, "outbound messages delayed by the fault plane", nil, func(c *Counters) *atomic.Uint64 { return &c.FaultDelays }, func(s *Snapshot) *uint64 { return &s.FaultDelays }},
	{"UnexpectedDropped", "chant_unexpected_dropped_total", MetricCounter, "messages dropped at the unexpected-queue cap", nil, func(c *Counters) *atomic.Uint64 { return &c.UnexpectedDropped }, func(s *Snapshot) *uint64 { return &s.UnexpectedDropped }},
	{"RecvTimeouts", "chant_recv_timeouts_total", MetricCounter, "receives abandoned by a deadline wait", nil, func(c *Counters) *atomic.Uint64 { return &c.RecvTimeouts }, func(s *Snapshot) *uint64 { return &s.RecvTimeouts }},
	{"PeerDeadRecvs", "chant_peer_dead_recvs_total", MetricCounter, "receives failed because their peer was declared dead", nil, func(c *Counters) *atomic.Uint64 { return &c.PeerDeadRecvs }, func(s *Snapshot) *uint64 { return &s.PeerDeadRecvs }},
	{"PeersDead", "chant_peers_dead_total", MetricCounter, "peers declared dead", nil, func(c *Counters) *atomic.Uint64 { return &c.PeersDead }, func(s *Snapshot) *uint64 { return &s.PeersDead }},
	{"RSRRetries", "chant_rsr_retries_total", MetricCounter, "RSR call attempts beyond the first", nil, func(c *Counters) *atomic.Uint64 { return &c.RSRRetries }, func(s *Snapshot) *uint64 { return &s.RSRRetries }},
	{"RSRTimeouts", "chant_rsr_timeouts_total", MetricCounter, "RSR calls that exhausted their retry budget", nil, func(c *Counters) *atomic.Uint64 { return &c.RSRTimeouts }, func(s *Snapshot) *uint64 { return &s.RSRTimeouts }},
	{"RSRDupsServed", "chant_rsr_dups_served_total", MetricCounter, "duplicate RSR requests answered from the dedup cache", nil, func(c *Counters) *atomic.Uint64 { return &c.RSRDupsServed }, func(s *Snapshot) *uint64 { return &s.RSRDupsServed }},
	{"Checkpoints", "chant_checkpoints_total", MetricCounter, "coordinated snapshots finalized", nil, func(c *Counters) *atomic.Uint64 { return &c.Checkpoints }, func(s *Snapshot) *uint64 { return &s.Checkpoints }},
	{"InFlightLogged", "chant_inflight_logged_total", MetricCounter, "in-flight messages recorded between marker arrivals", nil, func(c *Counters) *atomic.Uint64 { return &c.InFlightLogged }, func(s *Snapshot) *uint64 { return &s.InFlightLogged }},
	{"Restarts", "chant_restarts_total", MetricCounter, "restores from a checkpoint", nil, func(c *Counters) *atomic.Uint64 { return &c.Restarts }, func(s *Snapshot) *uint64 { return &s.Restarts }},
	{"InFlightReplayed", "chant_inflight_replayed_total", MetricCounter, "logged messages re-delivered after a restore", nil, func(c *Counters) *atomic.Uint64 { return &c.InFlightReplayed }, func(s *Snapshot) *uint64 { return &s.InFlightReplayed }},
	{"RejoinsServed", "chant_rejoins_served_total", MetricCounter, "rejoin announcements served", nil, func(c *Counters) *atomic.Uint64 { return &c.RejoinsServed }, func(s *Snapshot) *uint64 { return &s.RejoinsServed }},
	{"PeersRecovered", "chant_peers_recovered_total", MetricCounter, "peers moved from dead back to alive", nil, func(c *Counters) *atomic.Uint64 { return &c.PeersRecovered }, func(s *Snapshot) *uint64 { return &s.PeersRecovered }},
	{"AvgWaiting", "chant_avg_waiting_threads", MetricGauge, "time-averaged threads waiting on outstanding receives (Figure 13)", func(s *Snapshot) float64 { return s.AvgWaiting }, nil, nil},
	{"MaxWaiting", "chant_max_waiting_threads", MetricGauge, "peak simultaneously waiting threads", func(s *Snapshot) float64 { return float64(s.MaxWaiting) }, nil, nil},
}
