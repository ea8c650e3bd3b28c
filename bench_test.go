// Benchmarks regenerating the paper's tables and figures at reduced sizes;
// run cmd/experiments for the full sweeps. Each benchmark reports the
// figure's headline quantity as a custom metric so `go test -bench` output
// doubles as a results table.
//
// The file lives in the external test package: it exercises internal
// packages (online, exp, emu) that themselves import the public sof API,
// which an in-package test file would turn into an import cycle.
package sof_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"sof"
	"sof/internal/baseline"
	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/costmodel"
	"sof/internal/dist"
	"sof/internal/emu"
	"sof/internal/exp"
	"sof/internal/graph"
	"sof/internal/online"
	"sof/internal/sofexact"
	"sof/internal/topology"
)

// BenchmarkFig7CostFunction samples the Fortz–Thorup pricing curve.
func BenchmarkFig7CostFunction(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for u := 0.0; u <= 1.2; u += 0.01 {
			sink += costmodel.Cost(u, 1)
		}
	}
	b.ReportMetric(costmodel.Cost(1.0, 1), "cost@100%")
	_ = sink
}

// benchSweepPoint embeds one paper-default request with every algorithm
// and reports the average costs as metrics.
func benchSweepPoint(b *testing.B, kind exp.NetKind, withOpt bool) {
	b.Helper()
	sums := map[string]float64{}
	runs := 0
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		var net *topology.Network
		var err error
		switch kind {
		case exp.NetSoftLayer:
			net = topology.SoftLayer(topology.Config{NumVMs: exp.DefaultVMs, Seed: seed})
		case exp.NetCogent:
			net = topology.Cogent(topology.Config{NumVMs: exp.DefaultVMs, Seed: seed})
		default:
			net, err = topology.Inet(1000, 2000, 100, topology.Config{NumVMs: exp.DefaultVMs, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		req := core.Request{
			Sources:  net.RandomNodes(rng, exp.DefaultSources),
			Dests:    net.RandomNodes(rng, exp.DefaultDests),
			ChainLen: exp.DefaultChain,
		}
		opts := &core.Options{VMs: net.VMs}
		f, err := core.SOFDACtx(context.Background(), net.G, req, opts)
		if err != nil {
			b.Fatal(err)
		}
		sums["SOFDA"] += f.TotalCost()
		for _, kind := range []baseline.Kind{baseline.KindENEMP, baseline.KindEST, baseline.KindST} {
			if f, err := baseline.SolveCtx(context.Background(), net.G, req, opts, kind); err == nil {
				sums[kind.String()] += f.TotalCost()
			}
		}
		if withOpt {
			// Small branch budget: report the optimum only where it is
			// proven quickly (see internal/exp).
			if f, err := sofexact.SolveCtx(context.Background(), net.G, req, &sofexact.Options{VMs: net.VMs, MaxBranchNodes: 400}); err == nil {
				sums["OPT"] += f.TotalCost()
			}
		}
		runs++
	}
	for name, s := range sums {
		b.ReportMetric(s/float64(runs), name+"-cost")
	}
}

// BenchmarkFig8SoftLayer reproduces Fig. 8's default point on SoftLayer,
// including the exact optimum (the paper's CPLEX line).
func BenchmarkFig8SoftLayer(b *testing.B) { benchSweepPoint(b, exp.NetSoftLayer, true) }

// BenchmarkFig9Cogent reproduces Fig. 9's default point on Cogent.
func BenchmarkFig9Cogent(b *testing.B) { benchSweepPoint(b, exp.NetCogent, false) }

// BenchmarkFig10Inet reproduces Fig. 10's default point on a 1000-node
// Inet-style graph (5000 nodes in cmd/experiments).
func BenchmarkFig10Inet(b *testing.B) { benchSweepPoint(b, exp.NetInet, false) }

// BenchmarkFig11SetupCost reproduces Fig. 11 at multipliers 1x and 9x.
func BenchmarkFig11SetupCost(b *testing.B) {
	for _, mult := range []float64{1, 9} {
		b.Run(fmt.Sprintf("mult%.0fx", mult), func(b *testing.B) {
			var cost, vms float64
			runs := 0
			for i := 0; i < b.N; i++ {
				net := topology.SoftLayer(topology.Config{
					NumVMs: exp.DefaultVMs, Seed: int64(i), SetupCostMultiplier: mult,
				})
				rng := rand.New(rand.NewSource(int64(i)))
				req := core.Request{
					Sources:  net.RandomNodes(rng, exp.DefaultSources),
					Dests:    net.RandomNodes(rng, exp.DefaultDests),
					ChainLen: exp.DefaultChain,
				}
				f, err := core.SOFDACtx(context.Background(), net.G, req, &core.Options{VMs: net.VMs})
				if err != nil {
					b.Fatal(err)
				}
				cost += f.TotalCost()
				vms += float64(len(f.UsedVMs()))
				runs++
			}
			b.ReportMetric(cost/float64(runs), "cost")
			b.ReportMetric(vms/float64(runs), "used-vms")
		})
	}
}

// BenchmarkTable1Runtime measures SOFDA's wall time on Inet graphs
// (|V|=1000 here; the full 1000–5000 sweep lives in cmd/experiments).
func BenchmarkTable1Runtime(b *testing.B) {
	for _, srcs := range []int{2, 14, 26} {
		b.Run(fmt.Sprintf("V1000_S%d", srcs), func(b *testing.B) {
			net, err := topology.Inet(1000, 2000, 200, topology.Config{NumVMs: exp.DefaultVMs, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(srcs)))
			req := core.Request{
				Sources:  net.RandomNodes(rng, srcs),
				Dests:    net.RandomNodes(rng, exp.DefaultDests),
				ChainLen: exp.DefaultChain,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SOFDACtx(context.Background(), net.G, req, &core.Options{VMs: net.VMs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCandidateGeneration measures the candidate-chain fan-out of
// Procedure 3 (all |S|·|M| (source, last VM) pairs) sequentially versus on
// the full worker pool. The par1/parN wall-clock ratio is the headline
// speedup of the concurrent pipeline; a fresh oracle per iteration makes
// every run pay the Dijkstra-tree build, as a cold embedding would.
func BenchmarkCandidateGeneration(b *testing.B) {
	net := topology.Cogent(topology.Config{NumVMs: exp.DefaultVMs, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	sources := net.RandomNodes(rng, exp.DefaultSources)
	pairs := chain.Pairs(sources, net.VMs)
	for _, par := range parallelismLevels() {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				oracle := chain.NewOracle(net.G, chain.Options{})
				results, err := oracle.Chains(context.Background(), net.VMs, pairs, exp.DefaultChain, par)
				if err != nil {
					b.Fatal(err)
				}
				feasible := 0
				for _, r := range results {
					if r.Err == nil {
						feasible++
					}
				}
				if feasible == 0 {
					b.Fatal("no feasible candidate chain")
				}
			}
		})
	}
}

// BenchmarkSOFDAParallelism measures the end-to-end SOFDA embedding at
// Parallelism 1 versus the full worker pool on Cogent (the Steiner and
// assembly phases are shared, so the delta isolates the candidate stage).
func BenchmarkSOFDAParallelism(b *testing.B) {
	net := topology.Cogent(topology.Config{NumVMs: exp.DefaultVMs, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	req := core.Request{
		Sources:  net.RandomNodes(rng, exp.DefaultSources),
		Dests:    net.RandomNodes(rng, exp.DefaultDests),
		ChainLen: exp.DefaultChain,
	}
	for _, par := range parallelismLevels() {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SOFDACtx(context.Background(), net.G, req, &core.Options{VMs: net.VMs, Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parallelismLevels is {1, NumCPU}, collapsed on single-core machines.
func parallelismLevels() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkDistributedSOFDA measures the multi-domain pipeline end to end:
// per-domain candidate generation plus the leader's merge and completion.
func BenchmarkDistributedSOFDA(b *testing.B) {
	net := topology.Cogent(topology.Config{NumVMs: exp.DefaultVMs, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	req := core.Request{
		Sources:  net.RandomNodes(rng, exp.DefaultSources),
		Dests:    net.RandomNodes(rng, exp.DefaultDests),
		ChainLen: exp.DefaultChain,
	}
	opts := &core.Options{VMs: net.VMs}
	for _, domains := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("domains%d", domains), func(b *testing.B) {
			cluster := dist.NewCluster(net.G, domains, chain.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamedJoin measures the leader↔domain exchange on one
// instance: server-streamed fragment joins over three in-process domains,
// with candidates spliced into the aux graph as they land and dominated
// ones pruned before allocating state. It reports fragments/op, pruned/op,
// and overlap-ms/op — the per-embedding window in which the leader was
// assembling while the slowest domain was still solving. A positive
// overlap is the point of the exchange. The single sub-benchmark keeps
// the name stream so committed records stay comparable.
func BenchmarkStreamedJoin(b *testing.B) {
	net := topology.Cogent(topology.Config{NumVMs: exp.DefaultVMs, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	req := core.Request{
		Sources:  net.RandomNodes(rng, exp.DefaultSources),
		Dests:    net.RandomNodes(rng, exp.DefaultDests),
		ChainLen: exp.DefaultChain,
	}
	opts := &core.Options{VMs: net.VMs}
	b.Run("stream", func(b *testing.B) {
		cluster := dist.NewCluster(net.G, 3, chain.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := cluster.StreamStats()
		n := float64(b.N)
		b.ReportMetric(float64(st.StreamedFragments)/n, "frags/op")
		b.ReportMetric(float64(st.PrunedCandidates)/n, "pruned/op")
		b.ReportMetric(float64(st.OverlapNS)/n/1e6, "overlap-ms/op")
		if st.OverlapNS <= 0 {
			b.Fatal("streamed join reported zero leader overlap — the aux graph was not built incrementally")
		}
	})
}

// BenchmarkDijkstraBatch is the batched many-source SSSP claim in
// isolation: one DijkstraBatch call over k sources against k independent
// pooled Dijkstra runs on the same graph. Both share the arena pool; the
// batch variant additionally carves all per-source result arrays from
// two batch-wide allocations and fetches the CSR once, so allocs/op is
// the headline — it must sit well under the independent variant's.
func BenchmarkDijkstraBatch(b *testing.B) {
	net := topology.Cogent(topology.Config{NumVMs: exp.DefaultVMs, Seed: 1})
	sources := net.VMs[:16]
	b.Run("independent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range sources {
				graph.Dijkstra(net.G, s)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			graph.DijkstraBatch(net.G, sources, nil)
		}
	})
}

// BenchmarkDeltaStepping races the two single-source SSSP kernels on
// Inet graphs, each on its own arena: the heap rows run the indexed-heap
// reference (Arena.DijkstraHeap), the delta rows the default full run,
// which takes delta-stepping. Each op runs 16 distinct sources so a
// -benchtime 1x CI pass still measures a stable multi-run sample; ms/run
// is the per-source wall clock. CI gates the heap/delta ms/run ratio on
// the 10k-node graph twice: at >=2x in the committed BENCH_pr10.json
// record, and at >=1.7x in the fresh run — a ratio within one run, so
// runner speed cancels out.
func BenchmarkDeltaStepping(b *testing.B) {
	for _, nodes := range []int{1000, 10000} {
		net, err := topology.Inet(nodes, 2*nodes, nodes/10, topology.Config{NumVMs: 50, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		srcs := net.RandomNodes(rand.New(rand.NewSource(7)), 16)
		for _, v := range []struct {
			name string
			run  func(a *graph.Arena, g *graph.Graph, src graph.NodeID) *graph.ShortestPaths
		}{
			{"heap", (*graph.Arena).DijkstraHeap},
			{"delta", (*graph.Arena).Dijkstra},
		} {
			b.Run(fmt.Sprintf("V%d/%s", nodes, v.name), func(b *testing.B) {
				b.ReportAllocs()
				a := graph.NewArena()
				v.run(a, net.G, srcs[0]) // warm the CSR and cost layouts
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, s := range srcs {
						v.run(a, net.G, s)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(srcs))/1e6, "ms/run")
			})
		}
	}
}

// BenchmarkOnlineArrivals measures the session cache against the seed's
// per-request re-derivation on an unchanged-cost arrival stream: "cold"
// opens a fresh Solver per request,
// "warm" drives every request through one shared session whose
// epoch-keyed Dijkstra cache persists across arrivals. The dijkstras/op
// metric is the cache effect itself; the wall-clock ratio is the headline
// speedup.
func BenchmarkOnlineArrivals(b *testing.B) {
	const arrivals = 50
	net := topology.SoftLayer(topology.Config{NumVMs: exp.DefaultVMs, Seed: 1})
	snet := sof.FromGraph(net.G)
	rng := rand.New(rand.NewSource(42))
	reqs := make([]sof.Request, arrivals)
	for i := range reqs {
		reqs[i] = sof.Request{
			Sources:      net.RandomNodes(rng, 4+rng.Intn(4)),
			Destinations: net.RandomNodes(rng, 4+rng.Intn(4)),
			ChainLength:  exp.DefaultChain,
		}
	}
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		var dijkstras uint64
		for i := 0; i < b.N; i++ {
			dijkstras = 0
			for _, req := range reqs {
				solver := sof.NewSolver(snet, sof.WithVMs(net.VMs...))
				if _, err := solver.Embed(ctx, req); err != nil {
					b.Fatal(err)
				}
				dijkstras += solver.CacheStats().Misses
			}
		}
		b.ReportMetric(float64(dijkstras), "dijkstras/op")
	})
	b.Run("warm", func(b *testing.B) {
		var stats sof.CacheStats
		for i := 0; i < b.N; i++ {
			solver := sof.NewSolver(snet, sof.WithVMs(net.VMs...))
			in := make(chan sof.Request)
			go func() {
				defer close(in)
				for _, req := range reqs {
					in <- req
				}
			}()
			for res := range solver.EmbedStream(ctx, in) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			stats = solver.CacheStats()
		}
		b.ReportMetric(float64(stats.Misses), "dijkstras/op")
		b.ReportMetric(float64(stats.ChainMisses), "kstrolls/op")
		if total := stats.ChainHits + stats.ChainMisses; total > 0 {
			b.ReportMetric(100*float64(stats.ChainHits)/float64(total), "chainhit-%")
		}
	})
}

// BenchmarkEmbedBatch times EmbedBatch's ordered pipeline at widths 1 and
// 2 on 6 Inet-1000 networks with 25 VMs, 32 requests each (2 sources, 4
// destinations, chain length 2), in two regimes. "ample" has no capacity,
// so no commit moves the cost epoch and no solve is redone. "saturating"
// is WithCapacity(4, 3): commits mask links and VMs, so most solves begun
// beside an earlier commit are redone at their turn. Every width accepts
// what a sequential Embed loop accepts, so accepted/op is the same at
// both widths. ns/request is wall clock, from fresh networks and
// sessions, and says what the second core buys in each regime; it is
// recorded, not gated.
func BenchmarkEmbedBatch(b *testing.B) {
	const seeds, perSeed = 6, 32
	for _, regime := range []struct {
		name string
		opts []sof.Option
	}{
		{"ample", nil},
		{"saturating", []sof.Option{sof.WithCapacity(4, 3)}},
	} {
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/width%d", regime.name, width), func(b *testing.B) {
				accepted := 0
				for i := 0; i < b.N; i++ {
					for seed := int64(0); seed < seeds; seed++ {
						b.StopTimer()
						net, err := topology.Inet(1000, 2000, 100, topology.Config{NumVMs: 25, Seed: seed})
						if err != nil {
							b.Fatal(err)
						}
						rng := rand.New(rand.NewSource(seed))
						reqs := make([]sof.Request, perSeed)
						for j := range reqs {
							reqs[j] = sof.Request{
								Sources:      net.RandomNodes(rng, 2),
								Destinations: net.RandomNodes(rng, 4),
								ChainLength:  2,
							}
						}
						solver := sof.NewSolver(sof.FromGraph(net.G),
							append([]sof.Option{sof.WithParallelism(width)}, regime.opts...)...)
						b.StartTimer()
						results, err := solver.EmbedBatch(context.Background(), reqs)
						if err != nil {
							b.Fatal(err)
						}
						for _, r := range results {
							if r.Err == nil {
								accepted++
							}
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*seeds*perSeed), "ns/request")
				b.ReportMetric(float64(accepted)/float64(b.N), "accepted/op")
			})
		}
	}
}

// BenchmarkFig12Online reproduces the accumulative-cost experiment over a
// short arrival prefix on SoftLayer.
func BenchmarkFig12Online(b *testing.B) {
	for _, algo := range []sof.Algorithm{sof.AlgorithmSOFDA, sof.AlgorithmST} {
		b.Run(string(algo), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				net := topology.SoftLayer(topology.Config{NumVMs: 85, Seed: 1})
				cfg := online.DefaultSoftLayerConfig()
				cfg.Seed = 42
				sim := online.NewSimulator(net, algo, cfg)
				if _, err := sim.RunCtx(context.Background(), 10); err != nil {
					b.Fatal(err)
				}
				acc += sim.Accumulated()
			}
			b.ReportMetric(acc/float64(b.N), "accumulated-cost")
		})
	}
}

// BenchmarkLifecycle soaks the capacitated lifecycle session with seeded
// Inet arrival/departure streams in two regimes.
//
// "classic" is the PR 9 scenario unchanged: 5000 requests on a 300-node
// graph with per-accept repricing, driven into the saturation regime
// where masks divert arrivals and the session turns requests away. The
// scenario is fully deterministic, so accept-% and departed/op are
// exact-gated against the committed record.
//
// "scaled" is the million-user direction: a 10k-node Inet graph, 100k
// single-source requests through SOFDA-SS (whose embeds run on the real
// network via the session oracle — no per-request auxiliary clone),
// endpoints drawn from a 64-node access pool, and repricing batched every
// 512 accepts so the session's warm shortest-path state survives between
// passes. The headline metrics are ms/arrival (sub-millisecond) and
// dijkstras/arrival — the amortized full SSSP runs the delta-stepping
// relaxer plus the warm cache leave per request. tree-repairs/op and
// tree-carries/op count the stale trees the oracle repaired or carried
// across cost epochs instead of running in full; the three together are
// the trees the session built. accept-% and the tree counters are
// deterministic and exact-gated; wall clock is informational.
func BenchmarkLifecycle(b *testing.B) {
	run := func(b *testing.B, algo sof.Algorithm, nodes, access, vms, arrivals int, cfg online.Config) {
		var accepted, departed, live, dijkstras, repairs, carries float64
		var latencies []time.Duration
		for i := 0; i < b.N; i++ {
			net, err := topology.Inet(nodes, 2*nodes, access, topology.Config{NumVMs: vms, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			sim := online.NewSimulator(net, algo, cfg)
			if _, err := sim.RunCtx(context.Background(), arrivals); err != nil {
				b.Fatal(err)
			}
			st := sim.Lifecycle()
			if st.Arrivals != arrivals {
				b.Fatalf("ran %d arrivals, want %d", st.Arrivals, arrivals)
			}
			accepted += float64(st.Accepted)
			departed += float64(st.Departed)
			live += float64(len(sim.Solver().Leases()))
			dijkstras += float64(st.Dijkstras)
			repairs += float64(st.Repaired)
			carries += float64(st.Carried)
			latencies = append(latencies, st.EmbedLatencies...)
		}
		n := float64(b.N)
		b.ReportMetric(100*accepted/(n*float64(arrivals)), "accept-%")
		b.ReportMetric(departed/n, "departed/op")
		b.ReportMetric(live/n, "live-leases/op")
		b.ReportMetric(dijkstras/n, "dijkstras/op")
		b.ReportMetric(dijkstras/(n*float64(arrivals)), "dijkstras/arrival")
		b.ReportMetric(repairs/n, "tree-repairs/op")
		b.ReportMetric(carries/n, "tree-carries/op")
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/(n*float64(arrivals)), "ms/arrival")
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		p99 := latencies[(len(latencies)*99+99)/100-1]
		b.ReportMetric(float64(p99.Microseconds())/1e3, "p99-embed-ms")
	}
	b.Run("classic", func(b *testing.B) {
		run(b, sof.AlgorithmSOFDA, 300, 30, 30, 5000, online.Config{
			LinkCapacity: 30, Demand: 5, VMCapacity: 3,
			SrcRange: [2]int{2, 4}, DstRange: [2]int{4, 8},
			ChainLen: 2, Seed: 42, TTLRange: [2]int{30, 90},
		})
	})
	b.Run("scaled", func(b *testing.B) {
		run(b, sof.AlgorithmSOFDASS, 10000, 1000, 30, 100000, online.Config{
			LinkCapacity: 1000, Demand: 5, VMCapacity: 100,
			SrcRange: [2]int{1, 1}, DstRange: [2]int{3, 6},
			ChainLen: 2, Seed: 42, TTLRange: [2]int{30, 90},
			RepriceEvery: 512, AccessPool: 64,
		})
	})
}

// BenchmarkTable2QoE reproduces the video QoE experiment on both profiles.
func BenchmarkTable2QoE(b *testing.B) {
	for _, algo := range []sof.Algorithm{sof.AlgorithmSOFDA, sof.AlgorithmENEMP, sof.AlgorithmEST} {
		b.Run(string(algo), func(b *testing.B) {
			var startup, rebuf float64
			runs := 0
			for i := 0; i < b.N; i++ {
				q, err := emu.EvaluateAveraged(algo, emu.Testbed, 5)
				if err != nil {
					b.Fatal(err)
				}
				startup += q.AvgStartupSec
				rebuf += q.AvgRebufferSec
				runs++
			}
			b.ReportMetric(startup/float64(runs), "startup-sec")
			b.ReportMetric(rebuf/float64(runs), "rebuffer-sec")
		})
	}
}

// BenchmarkFailureRecovery measures the survivable-forest repair path
// against re-embedding the damaged services from scratch under the same
// failure state. The deterministic counters are the headline: fast-path
// recoveries as a share of reattachments, and the oracle's full Dijkstra
// runs repair needed versus what scratch re-embeds of the same requests
// cost — grafting from the break point should re-derive far fewer trees.
// tree-repairs/op and tree-carries/op count the stale trees the repair
// sweep's oracle repaired or carried across the failure's cost epoch
// instead of running in full. p99-recovery-ms is wall clock and
// informational only.
func BenchmarkFailureRecovery(b *testing.B) {
	net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 3})
	snet := sof.FromGraph(net.G)
	rng := rand.New(rand.NewSource(21))
	reqs := make([]sof.Request, 8)
	for i := range reqs {
		reqs[i] = sof.Request{
			Sources:      net.RandomNodes(rng, 2+rng.Intn(2)),
			Destinations: net.RandomNodes(rng, 3+rng.Intn(2)),
			ChainLength:  2,
		}
	}
	ctx := context.Background()
	var (
		repairDij, scratchDij   float64
		treeRepairs, carries    float64
		fastPath, reattached    float64
		blast                   float64
		repairCost, scratchCost float64
		latencies               []time.Duration
	)
	for i := 0; i < b.N; i++ {
		solver := sof.NewSolver(snet, sof.WithVMs(net.VMs...), sof.WithRecovery())
		for _, req := range reqs {
			if _, err := solver.Embed(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
		// Sever half the forests at their deepest carried link (a leaf-side
		// cut keeps the rest of the network routable, so repair has a
		// fighting chance and the fast-path rate is meaningful): the last
		// link of the footprint, the uplink of the forest's newest clone.
		for fi, f := range solver.LiveForests() {
			if edges, _ := f.Footprint(); fi%2 == 0 && len(edges) > 0 {
				solver.FailLink(edges[len(edges)-1])
			}
		}
		base := solver.CacheStats()
		start := time.Now()
		rep, err := solver.RepairAll(ctx)
		if err != nil && !errors.Is(err, sof.ErrUnrecoverable) {
			b.Fatal(err)
		}
		latencies = append(latencies, time.Since(start))
		st := solver.CacheStats()
		repairDij += float64(st.Misses - base.Misses)
		treeRepairs += float64(st.Repaired - base.Repaired)
		carries += float64(st.Carried - base.Carried)
		fastPath += float64(rep.FastPath)
		reattached += float64(rep.Reattached)
		blast += float64(rep.ForestsTouched)
		// Scratch baseline: a cold session re-embeds each touched forest's
		// current request under the identical failure state.
		scratch := sof.NewSolver(snet, sof.WithVMs(net.VMs...))
		for _, fr := range rep.Forests {
			repairCost += fr.Forest.TotalCost()
			if sf, err := scratch.Embed(ctx, fr.Forest.Request()); err == nil {
				scratchCost += sf.TotalCost()
			}
		}
		scratchDij += float64(scratch.CacheStats().Misses)
		solver.RestoreAllFailures()
	}
	n := float64(b.N)
	b.ReportMetric(repairDij/n, "repair-dijkstras/op")
	b.ReportMetric(scratchDij/n, "scratch-dijkstras/op")
	b.ReportMetric(treeRepairs/n, "tree-repairs/op")
	b.ReportMetric(carries/n, "tree-carries/op")
	if reattached > 0 {
		b.ReportMetric(100*fastPath/reattached, "fastpath-%")
	}
	b.ReportMetric(blast/n, "blast-radius/op")
	b.ReportMetric(repairCost/n, "repair-cost/op")
	b.ReportMetric(scratchCost/n, "scratch-cost/op")
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[(len(latencies)*99+99)/100-1]
	b.ReportMetric(float64(p99.Microseconds())/1e3, "p99-recovery-ms")
}
