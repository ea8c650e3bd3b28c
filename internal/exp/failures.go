package exp

// Failure-recovery experiment: online arrivals with a seeded failure
// schedule, reporting blast radius, repair tier rates, recovery latency,
// and the repaired-vs-scratch cost comparison per failure mix.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sof"
	"sof/internal/online"
)

// FailureRow is one failure mix (fraction of failures hitting VMs rather
// than links) of the recovery experiment.
type FailureRow struct {
	VMShare       float64
	Failures      int
	Sweeps        int
	Blast         int // forests touched across all sweeps
	Orphans       int
	FastPath      int
	Reembeds      int
	Unrecoverable int
	FastPathRate  float64
	RepairCost    float64 // summed repair cost deltas
	RepairedCost  float64 // post-repair cost of the damaged forests
	ScratchCost   float64 // cost of re-embedding them from scratch
	P99Latency    time.Duration
}

// FailureTable runs the recovery scenario on the given network for each
// VM-failure share, with identical arrival and schedule seeds per row so
// the mixes are comparable.
func FailureTable(kind NetKind, steps, events int) ([]FailureRow, error) {
	var cfg online.Config
	var numVMs int
	switch kind {
	case NetSoftLayer:
		cfg = online.DefaultSoftLayerConfig()
		numVMs = 85
	case NetCogent:
		cfg = online.DefaultCogentConfig()
		numVMs = 200
	default:
		return nil, fmt.Errorf("exp: FailureTable supports softlayer and cogent, got %q", kind)
	}
	cfg.Seed = 42
	var out []FailureRow
	for _, share := range []float64{0, 0.25, 0.5} {
		net, err := buildNet(kind, numVMs, 1, 1, 0)
		if err != nil {
			return nil, err
		}
		sim := online.NewSimulator(net, sof.AlgorithmSOFDA, cfg)
		sim.SetFailureSchedule(online.FailureSchedule(net, steps, online.FailureConfig{
			Events: events, VMShare: share, Downtime: 3, Seed: 7,
		}))
		sim.CompareScratchCost(true)
		if _, err := sim.RunCtx(context.Background(), steps); err != nil {
			return nil, err
		}
		st := sim.Recovery()
		out = append(out, FailureRow{
			VMShare:       share,
			Failures:      st.Failures,
			Sweeps:        st.Sweeps,
			Blast:         st.ForestsTouched,
			Orphans:       st.Orphans,
			FastPath:      st.FastPath,
			Reembeds:      st.Reembeds,
			Unrecoverable: st.Unrecoverable,
			FastPathRate:  st.FastPathRate(),
			RepairCost:    st.RepairCost,
			RepairedCost:  st.RepairedCost,
			ScratchCost:   st.ScratchCost,
			P99Latency:    st.LatencyP99(),
		})
	}
	return out, nil
}

// FormatFailureTable renders the recovery experiment.
func FormatFailureTable(kind NetKind, rows []FailureRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failure recovery under live load (%s)\n", kind)
	b.WriteString("vm-share  fails  sweeps  blast  orphans  fastpath  reembed  lost  fp-rate  repair-cost  repaired  scratch  p99\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8.2f  %-5d  %-6d  %-5d  %-7d  %-8d  %-7d  %-4d  %-7.2f  %-11.1f  %-8.1f  %-7.1f  %s\n",
			r.VMShare, r.Failures, r.Sweeps, r.Blast, r.Orphans, r.FastPath,
			r.Reembeds, r.Unrecoverable, r.FastPathRate, r.RepairCost,
			r.RepairedCost, r.ScratchCost, r.P99Latency.Round(time.Microsecond))
	}
	return b.String()
}
