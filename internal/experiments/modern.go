package experiments

import "chant/internal/machine"

// RunModernContrast re-runs the beta=100 polling sweep on the Modern cost
// model (RDMA-class wire, nanosecond-scale msgtest). The paper's central
// cost asymmetry — an expensive per-request msgtest — disappears on such
// hardware, so the three policies converge: the 1994 conclusion that WQ is
// unusable is an artifact of NX-era testing costs, while the PS-beats-TP
// ordering (partial vs. full switch) persists at much smaller margins.
func RunModernContrast() PollingSweep {
	base := StandardPollingBase
	base.Model = machine.Modern()
	return RunPollingSweep(100, nil, base)
}
