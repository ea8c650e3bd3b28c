// Distributed scenario: the SoftLayer network is split into three
// controller domains and embedded twice (Section VI) — once with the
// in-process channel transport (domains answer on the leader's own
// goroutines), and once
// with domains behind real TCP servers on loopback listeners, each owning
// its own reconstruction of the network, the way separate OS processes
// would (see cmd/sofdomain for the standalone binary). Either way domains
// stream candidates as they complete, the leader assembles the auxiliary
// graph while slower domains are still solving, and dominated candidates
// are pruned before allocating any aux-graph state. Both runs must match
// the centralized embedding bit for bit: the transport changes where and
// when the candidate chains are computed, not what is computed.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"

	"sof"
	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/dist"
	distrpc "sof/internal/dist/rpc"
	"sof/internal/topology"
)

func main() {
	const (
		seed    = 11
		domains = 3
	)
	build := func() *topology.Network {
		return topology.SoftLayer(topology.Config{NumVMs: 20, Seed: seed})
	}
	leaderNet := build()
	rng := rand.New(rand.NewSource(seed))
	sources := leaderNet.RandomNodes(rng, 6)
	dests := leaderNet.RandomNodes(rng, 5)

	solver := sof.NewSolver(sof.FromGraph(leaderNet.G), sof.WithVMs(leaderNet.VMs...))
	central, err := solver.Embed(context.Background(), sof.Request{
		Sources: sources, Destinations: dests, ChainLength: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("centralized SOFDA:        cost=%.2f trees=%d\n", central.TotalCost(), central.Trees())

	req := core.Request{Sources: sources, Dests: dests, ChainLen: 2}
	opts := dist.Options{Core: &core.Options{VMs: leaderNet.VMs}}

	// In-process transport: domains with private oracles, each answering
	// on the leader goroutine that streams its pairs.
	cluster := dist.NewCluster(leaderNet.G, domains, chain.Options{})
	inproc, err := cluster.SOFDA(context.Background(), req, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed (inproc):     cost=%.2f trees=%d (%d in-process domains)\n",
		inproc.TotalCost(), inproc.NumTrees(), domains)

	// RPC transport: each domain server rebuilds the network from the same
	// seed — sharing nothing with the leader but the wire — and streams
	// candidate fragments back over TCP with the gob codec.
	addrs := make([]string, domains)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := distrpc.Serve(lis, dist.NewDomain(build().G, chain.Options{}))
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	tr := distrpc.NewTransport(addrs)
	defer tr.Close()
	rpcCluster := dist.NewClusterWith(leaderNet.G, domains, dist.Config{Transport: tr, RetryBudget: 1})
	overRPC, err := rpcCluster.SOFDA(context.Background(), req, opts)
	stats := rpcCluster.StreamStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed (rpc):        cost=%.2f trees=%d (%d servers on %v)\n",
		overRPC.TotalCost(), overRPC.NumTrees(), domains, addrs)
	fmt.Printf("                          %d fragments, %d pruned, overlap %.2fms\n",
		stats.StreamedFragments, stats.PrunedCandidates, float64(stats.OverlapNS)/1e6)

	if err := overRPC.Validate(req.Sources, req.Dests); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all three costs identical:",
		central.TotalCost() == inproc.TotalCost() && inproc.TotalCost() == overRPC.TotalCost())
}
