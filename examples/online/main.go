// Online scenario: requests arrive one at a time on the Cogent backbone,
// each priced by the current Fortz–Thorup congestion costs (Section
// VIII-C / Fig. 12). Every arrival is embedded through the simulator's
// long-lived Solver session, so shortest-path state persists across
// requests and is invalidated only by actual cost changes (via the
// network's cost epoch). Prints the accumulated cost of SOFDA vs the
// single-tree baseline over the same arrival sequence, plus each
// session's cache counters.
package main

import (
	"context"
	"fmt"
	"log"

	"sof"
	"sof/internal/online"
	"sof/internal/topology"
)

func main() {
	const arrivals = 15
	ctx := context.Background()
	for _, algo := range []sof.Algorithm{sof.AlgorithmSOFDA, sof.AlgorithmST} {
		net := topology.Cogent(topology.Config{NumVMs: 200, Seed: 3})
		cfg := online.DefaultCogentConfig()
		cfg.Seed = 99 // same request stream for both algorithms
		sim := online.NewSimulator(net, algo, cfg)
		results, err := sim.RunCtx(ctx, arrivals)
		if err != nil {
			log.Fatalf("%s: %v", algo, err)
		}
		last := results[len(results)-1]
		rejected := 0
		for _, r := range results {
			if r.Rejected {
				rejected++
			}
		}
		if rejected == arrivals {
			log.Fatalf("%s: every request rejected", algo)
		}
		stats := sim.Solver().CacheStats()
		fmt.Printf("%-6s after %2d arrivals: accumulated cost %10.1f (rejected %d) | cache: %d Dijkstras, %d hits\n",
			algo, arrivals, last.Accumulated, rejected, stats.Misses, stats.Hits)
	}
}
