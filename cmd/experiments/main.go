// Command experiments regenerates every table and figure of the paper's
// evaluation (Section VIII) on the reconstructed topologies and prints the
// series as text tables.
//
// Usage:
//
//	experiments -fig 8            # Fig. 8 (SoftLayer, with exact optimum)
//	experiments -fig 12 -steps 30 # online accumulative cost
//	experiments -table 1          # SOFDA runtime
//	experiments -dist             # distributed vs centralized SOFDA (Section VI)
//	experiments -failures -quick  # failure injection + recovery table
//	experiments -lifecycle -quick # capacitated arrival/departure lifecycle table
//	experiments -dist -transport rpc  # same, over loopback TCP domain servers
//	experiments -all -quick       # everything, reduced sizes
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sof/internal/core"
	"sof/internal/dist"
	distrpc "sof/internal/dist/rpc"
	"sof/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		fig         = flag.Int("fig", 0, "figure to regenerate (7–12), 0 = none")
		table       = flag.Int("table", 0, "table to regenerate (1 or 2), 0 = none")
		all         = flag.Bool("all", false, "regenerate everything")
		quick       = flag.Bool("quick", false, "reduced sizes/runs for a fast pass")
		runs        = flag.Int("runs", 3, "random requests averaged per data point")
		steps       = flag.Int("steps", 30, "arrivals for Fig. 12")
		distrib     = flag.Bool("dist", false, "distributed SOFDA comparison (Section VI)")
		failures    = flag.Bool("failures", false, "failure recovery under live load (survivable forests)")
		lifecycle   = flag.Bool("lifecycle", false, "capacitated arrival/departure run: acceptance, departures, adaptive admission")
		lcNodes     = flag.Int("nodes", 0, "with -lifecycle: run the scaled soak on an Inet graph of this many nodes instead of SoftLayer/Cogent (0 = classic kinds)")
		lcRequests  = flag.Int("requests", 0, "with -lifecycle: arrivals per setting (0 = derive from -steps)")
		failEvents  = flag.Int("fail-events", 60, "failures injected per -failures run")
		transport   = flag.String("transport", "inproc", "distributed transport: inproc (channel) or rpc (TCP over loopback)")
		domainAddrs = flag.String("domain-addrs", "", "comma-separated addresses of running sofdomain processes; with -dist, embeds against them instead of spinning loopback servers")
		domainNet   = flag.String("domain-net", "softlayer", "topology the sofdomain processes were started with (-domain-addrs mode)")
		domainSeed  = flag.Int64("domain-seed", 0, "seed the sofdomain processes were started with (-domain-addrs mode)")
		domainInet  = flag.Int("domain-inet-nodes", 1000, "node count the sofdomain processes were started with for -domain-net inet (sofdomain's -inet-nodes default)")
	)
	flag.Parse()

	r := *runs
	inet := 5000
	t1Sizes := []int{1000, 2000, 3000, 4000, 5000}
	if *quick {
		r = 1
		inet = 600
		t1Sizes = []int{300, 600}
	}
	ran := false
	run := func(n int, f func() error) {
		if *all || *fig == n || (*table == n-100 && n > 100) {
			ran = true
			if err := f(); err != nil {
				log.Fatalf("figure/table %d: %v", n, err)
			}
		}
	}

	run(7, func() error {
		fmt.Println(exp.Fig7().Format())
		return nil
	})
	run(8, func() error {
		for _, p := range []exp.SweepParam{exp.ParamSources, exp.ParamDests, exp.ParamVMs, exp.ParamChain} {
			s, err := exp.CostSweep(exp.NetSoftLayer, p, r, true, 0)
			if err != nil {
				return err
			}
			fmt.Println("Fig 8:", s.Format())
		}
		return nil
	})
	run(9, func() error {
		for _, p := range []exp.SweepParam{exp.ParamSources, exp.ParamDests, exp.ParamVMs, exp.ParamChain} {
			s, err := exp.CostSweep(exp.NetCogent, p, r, false, 0)
			if err != nil {
				return err
			}
			fmt.Println("Fig 9:", s.Format())
		}
		return nil
	})
	run(10, func() error {
		for _, p := range []exp.SweepParam{exp.ParamSources, exp.ParamDests, exp.ParamVMs, exp.ParamChain} {
			s, err := exp.CostSweep(exp.NetInet, p, r, false, inet)
			if err != nil {
				return err
			}
			fmt.Println("Fig 10:", s.Format())
		}
		return nil
	})
	run(11, func() error {
		costS, vmS, err := exp.Fig11(r)
		if err != nil {
			return err
		}
		fmt.Println(costS.Format())
		fmt.Println(vmS.Format())
		return nil
	})
	run(12, func() error {
		for _, kind := range []exp.NetKind{exp.NetSoftLayer, exp.NetCogent} {
			n := *steps
			if kind == exp.NetCogent && !*quick {
				n = 45
			}
			s, err := exp.Fig12(kind, n)
			if err != nil {
				return err
			}
			fmt.Println(s.Format())
		}
		return nil
	})
	run(101, func() error {
		rows, err := exp.Table1(t1Sizes, exp.SweepSources)
		if err != nil {
			return err
		}
		fmt.Println(exp.FormatTable1(rows))
		return nil
	})
	run(102, func() error {
		rows, err := exp.Table2(10 * r)
		if err != nil {
			return err
		}
		fmt.Println(exp.FormatTable2(rows))
		return nil
	})
	if *all || *failures {
		ran = true
		kinds := []exp.NetKind{exp.NetSoftLayer, exp.NetCogent}
		if *quick {
			kinds = kinds[:1]
		}
		for _, kind := range kinds {
			n, ev := *steps, *failEvents
			if *quick {
				n, ev = 15, 30
			}
			rows, err := exp.FailureTable(kind, n, ev)
			if err != nil {
				log.Fatalf("failure recovery (%s): %v", kind, err)
			}
			fmt.Println(exp.FormatFailureTable(kind, rows))
		}
	}
	if *all || *lifecycle {
		ran = true
		kinds := []exp.NetKind{exp.NetSoftLayer, exp.NetCogent}
		n := 12 * *steps // departures need a long stream to reach steady state
		if *quick {
			kinds = kinds[:1]
			n = 4 * *steps
		}
		inetNodes := 0
		if *lcNodes > 0 {
			// The scaled soak: one Inet graph of -nodes nodes, -requests
			// arrivals per setting — the CLI form of BenchmarkLifecycle/scaled
			// (e.g. -lifecycle -nodes 10000 -requests 100000).
			kinds = []exp.NetKind{exp.NetInet}
			inetNodes = *lcNodes
		}
		if *lcRequests > 0 {
			n = *lcRequests
		}
		for _, kind := range kinds {
			rows, err := exp.LifecycleTable(kind, n, inetNodes)
			if err != nil {
				log.Fatalf("lifecycle (%s): %v", kind, err)
			}
			fmt.Println(exp.FormatLifecycleTable(kind, rows))
		}
	}
	if *all || *distrib {
		ran = true
		if *domainAddrs != "" {
			if err := runAgainstDomains(strings.Split(*domainAddrs, ","), exp.NetKind(*domainNet), *domainSeed, *domainInet); err != nil {
				log.Fatalf("distributed embedding against %s: %v", *domainAddrs, err)
			}
		} else {
			kinds := []exp.NetKind{exp.NetSoftLayer, exp.NetCogent}
			if *quick {
				kinds = kinds[:1]
			}
			rows, err := exp.DistTable(kinds, []int{1, 3, 5}, r, inet, exp.DistTransport(*transport))
			if err != nil {
				log.Fatalf("distributed comparison: %v", err)
			}
			fmt.Println(exp.FormatDistTable(rows))
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// runAgainstDomains embeds the default request through running sofdomain
// processes and compares against the centralized solve — the leader half
// of the README's two-terminal quickstart. The fallback is deliberately
// disabled: this command exists to prove the RPC path works, so a dead or
// misconfigured domain must fail loudly instead of being silently papered
// over by a leader-local solve that never touched the wire.
func runAgainstDomains(addrs []string, kind exp.NetKind, seed int64, inetNodes int) error {
	network, req, err := exp.DefaultRequest(kind, seed, inetNodes)
	if err != nil {
		return err
	}
	opts := &core.Options{VMs: network.VMs}
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		return fmt.Errorf("centralized: %w", err)
	}
	tr := distrpc.NewTransport(addrs)
	defer tr.Close()
	cluster := dist.NewClusterWith(network.G, len(addrs), dist.Config{
		Transport: tr, RetryBudget: 1, DisableFallback: true,
	})
	start := time.Now()
	f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
	if err != nil {
		return fmt.Errorf("%w\n(are the sofdomain processes running, and started with -net %s -seed %d and the default -vms/-inet-nodes? every topology flag must match, or the graph-digest handshake refuses)",
			err, kind, seed)
	}
	fmt.Printf("distributed SOFDA over %d sofdomain processes (%v): cost=%.2f in %.2fms\n",
		len(addrs), addrs, f.TotalCost(), float64(time.Since(start).Microseconds())/1e3)
	fmt.Printf("centralized SOFDA:                          cost=%.2f (match=%v)\n",
		central.TotalCost(), central.TotalCost() == f.TotalCost())
	st := cluster.StreamStats()
	fmt.Printf("streaming: %d fragments, %d results, %d pruned, overlap %.2fms\n",
		st.StreamedFragments, st.StreamedResults, st.PrunedCandidates, float64(st.OverlapNS)/1e6)
	return nil
}
