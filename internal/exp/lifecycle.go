package exp

// Lifecycle experiment: the arrival/departure scenario the capacitated
// Solver session enables. Each row runs the same seeded arrival stream
// under one admission setting and reports what the session admitted, what
// it turned away (split by cause), how much departed, and what the run
// earned — the competitive-admission comparison of Lukovszki & Schmid next
// to the paper's arrival-only Figure 12 setting.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sof"
	"sof/internal/online"
	"sof/internal/topology"
)

// LifecycleRow is one admission setting of the lifecycle experiment.
type LifecycleRow struct {
	Label      string
	Arrivals   int
	Accepted   int
	AcceptRate float64
	// Rejections by cause: the footprint did not fit (capacity), the
	// utilization price exceeded the budget (admission), or no route
	// existed under the current masks (infeasible).
	CapacityRejects  int
	AdmissionRejects int
	Infeasible       int
	// Departed counts TTL expiries; Live is the leases still holding
	// resources when the run ended.
	Departed int
	Live     int
	// Revenue is the session's accumulated benefit (destinations of every
	// admitted request); Cost the accumulated embedding cost.
	Revenue float64
	Cost    float64
	// MeanDijkstras is the amortized full shortest-path runs per arrival
	// — the warm-cache effect the scaled soak exists to demonstrate.
	MeanDijkstras float64
	P99           time.Duration
}

// lifecycleNet builds the row's network: identical for every row so the
// settings are comparable.
func lifecycleNet(kind NetKind, inetNodes int) (*topology.Network, int, error) {
	switch kind {
	case NetSoftLayer:
		net, err := buildNet(kind, 85, 1, 1, 0)
		return net, 0, err
	case NetCogent:
		net, err := buildNet(kind, 200, 1, 1, 0)
		return net, 0, err
	case NetInet:
		// Candidate generation scales with the VM pool per arrival — every
		// request sweeps an (source, last VM) chain per candidate — so the
		// scaled soak bounds it at 30: a 10k-node run then measures
		// per-arrival SSSP and cache behavior, not a 2000-VM candidate
		// sweep no deployment would configure. 30 matches the committed
		// BenchmarkLifecycle/scaled scenario.
		vms := inetNodes / 5
		if vms > 30 {
			vms = 30
		}
		net, err := buildNet(kind, vms, 1, 1, inetNodes)
		return net, inetNodes, err
	default:
		return nil, 0, fmt.Errorf("exp: LifecycleTable does not support %q", kind)
	}
}

// lifecycleBase is the shared load setting of every row: tighter links
// than the Figure 12 defaults (20 concurrent requests per link, 5 slots
// per VM) and small requests, so a few hundred arrivals actually reach the
// capacity and admission regimes instead of staying in the flat region.
func lifecycleBase(kind NetKind) online.Config {
	var cfg online.Config
	switch kind {
	case NetCogent:
		cfg = online.DefaultCogentConfig()
	default:
		cfg = online.DefaultSoftLayerConfig()
	}
	cfg.Seed = 42
	cfg.LinkCapacity = 100
	cfg.Demand = 5
	cfg.VMCapacity = 5
	cfg.SrcRange = [2]int{2, 4}
	cfg.DstRange = [2]int{3, 6}
	cfg.ChainLen = 2
	if kind == NetInet {
		// The scaled-soak regime, matching the committed
		// BenchmarkLifecycle/scaled scenario: single-source requests (the
		// SOFDA-SS embeds run on the real network through the session
		// oracle, with no per-request auxiliary clone), endpoints from a
		// bounded 64-node access pool so trees and chains actually
		// re-occur, capacity headroom that keeps saturation masks from
		// invalidating the epoch-keyed caches every few arrivals, and the
		// Fortz–Thorup repricing pass batched every 512 accepts — a full
		// pass after every accept would cold every arrival's shortest-path
		// state.
		cfg.LinkCapacity = 1000
		cfg.VMCapacity = 100
		cfg.SrcRange = [2]int{1, 1}
		cfg.DstRange = [2]int{3, 6}
		cfg.RepriceEvery = 512
		cfg.AccessPool = 64
	}
	return cfg
}

// LifecycleTable runs the seeded arrival stream of the given length under
// three settings: the paper's arrival-only regime (services never leave),
// finite lifetimes (TTL 5–15 arrival steps), and finite lifetimes under
// the adaptive utilization-exponential admission rule.
func LifecycleTable(kind NetKind, steps, inetNodes int) ([]LifecycleRow, error) {
	settings := []struct {
		label string
		mut   func(*online.Config)
	}{
		{"arrival-only", func(c *online.Config) {}},
		{"departures", func(c *online.Config) { c.TTLRange = [2]int{5, 15} }},
		{"adaptive", func(c *online.Config) {
			c.TTLRange = [2]int{5, 15}
			c.AdmissionMu = 16
			c.AdmissionBudget = 1
		}},
	}
	var out []LifecycleRow
	for _, set := range settings {
		net, _, err := lifecycleNet(kind, inetNodes)
		if err != nil {
			return nil, err
		}
		cfg := lifecycleBase(kind)
		set.mut(&cfg)
		algo := sof.AlgorithmSOFDA
		if kind == NetInet {
			// The scaled soak embeds single-source requests through
			// SOFDA-SS; see lifecycleBase.
			algo = sof.AlgorithmSOFDASS
		}
		sim := online.NewSimulator(net, algo, cfg)
		if _, err := sim.RunCtx(context.Background(), steps); err != nil {
			return nil, err
		}
		st := sim.Lifecycle()
		out = append(out, LifecycleRow{
			Label:            set.label,
			Arrivals:         st.Arrivals,
			Accepted:         st.Accepted,
			AcceptRate:       st.AcceptRate(),
			CapacityRejects:  st.CapacityRejects,
			AdmissionRejects: st.AdmissionRejects,
			Infeasible:       st.Infeasible,
			Departed:         st.Departed,
			Live:             sim.Solver().LiveLeases(),
			Revenue:          sim.Solver().Accumulated(),
			Cost:             sim.Accumulated(),
			MeanDijkstras:    st.MeanDijkstras(),
			P99:              st.LatencyP99(),
		})
	}
	return out, nil
}

// FormatLifecycleTable renders the lifecycle experiment.
func FormatLifecycleTable(kind NetKind, rows []LifecycleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Capacitated lifecycle embedding (%s)\n", kind)
	b.WriteString("setting       arrivals  accepted  rate   cap-rej  adm-rej  infeas  departed  live  revenue  acc-cost   dijk/arr  p99-embed\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s  %-8d  %-8d  %-5.2f  %-7d  %-7d  %-6d  %-8d  %-4d  %-7.0f  %-9.1f  %-8.2f  %s\n",
			r.Label, r.Arrivals, r.Accepted, r.AcceptRate, r.CapacityRejects,
			r.AdmissionRejects, r.Infeasible, r.Departed, r.Live, r.Revenue,
			r.Cost, r.MeanDijkstras, r.P99.Round(time.Microsecond))
	}
	return b.String()
}
