package exp

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"sof"
	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/dist"
	distrpc "sof/internal/dist/rpc"
	"sof/internal/topology"
)

// DistTransport selects how the leader reaches its domain controllers in
// the distributed comparison.
type DistTransport string

// Transports of the distributed comparison.
const (
	// TransportInproc uses dist.ChannelTransport: domains inside the
	// leader process, each answering on the leader goroutine that streams
	// its pairs (the reference deployment).
	TransportInproc DistTransport = "inproc"
	// TransportRPC spins one dist/rpc domain server per domain on
	// 127.0.0.1:0 and reaches them through dist/rpc.Transport, so every
	// candidate fragment crosses a real gob-encoded TCP hop.
	TransportRPC DistTransport = "rpc"
)

// DistRow is one distributed-vs-centralized comparison: the same request
// solved by core.SOFDACtx and by a dist.Cluster with the given domain count
// and transport. Match reports cost equality, the distributed correctness
// claim of Section VI. Rows also report the per-embedding averages of the
// streaming counters: fragments consumed, dominated candidates pruned
// before allocating aux-graph state, and the leader-overlap window (time
// between the leader's first aux-graph insertion and the slowest domain
// finishing).
type DistRow struct {
	Net         NetKind
	Transport   DistTransport
	Domains     int
	CentralCost float64
	DistCost    float64
	Match       bool
	CentralMS   float64
	DistMS      float64
	Fragments   float64
	Pruned      float64
	OverlapMS   float64
}

// DistTable runs the distributed comparison on the paper-default request
// for every (topology, domain count) combination, averaging costs and wall
// times over runs seeds. The centralized baseline is solved once per
// (topology, seed) and shared across domain counts — its cost does not
// depend on the partitioning. An empty transport means TransportInproc.
func DistTable(kinds []NetKind, domainCounts []int, runs, inetNodes int, transport DistTransport) ([]DistRow, error) {
	if transport == "" {
		transport = TransportInproc
	}
	type instance struct {
		net       *topology.Network
		req       core.Request
		opts      *core.Options
		cost      float64
		centralMS float64
	}
	var rows []DistRow
	for _, kind := range kinds {
		insts := make([]instance, runs)
		for r := 0; r < runs; r++ {
			net, req, err := defaultRequest(kind, int64(r), inetNodes)
			if err != nil {
				return nil, err
			}
			opts := &core.Options{VMs: net.VMs}
			start := time.Now()
			central, err := newSolver(net).Embed(context.Background(), sof.Request{
				Sources: req.Sources, Destinations: req.Dests, ChainLength: req.ChainLen,
			})
			if err != nil {
				return nil, fmt.Errorf("exp: centralized SOFDA on %s: %w", kind, err)
			}
			insts[r] = instance{
				net:       net,
				req:       req,
				opts:      opts,
				cost:      central.TotalCost(),
				centralMS: float64(time.Since(start).Microseconds()) / 1e3,
			}
		}
		for _, domains := range domainCounts {
			row := DistRow{Net: kind, Transport: transport, Domains: domains, Match: true}
			for _, in := range insts {
				cluster, cleanup, err := newDistCluster(in.net, domains, transport)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				distributed, err := cluster.SOFDA(context.Background(), in.req, dist.Options{Core: in.opts})
				stats := cluster.StreamStats()
				cleanup()
				if err != nil {
					return nil, fmt.Errorf("exp: distributed SOFDA on %s (%d domains, %s): %w",
						kind, domains, transport, err)
				}
				row.DistMS += float64(time.Since(start).Microseconds()) / 1e3
				row.CentralCost += in.cost
				row.CentralMS += in.centralMS
				row.DistCost += distributed.TotalCost()
				row.Fragments += float64(stats.StreamedFragments)
				row.Pruned += float64(stats.PrunedCandidates)
				row.OverlapMS += float64(stats.OverlapNS) / 1e6
				if in.cost != distributed.TotalCost() {
					row.Match = false
				}
			}
			n := float64(runs)
			row.CentralCost /= n
			row.DistCost /= n
			row.CentralMS /= n
			row.DistMS /= n
			row.Fragments /= n
			row.Pruned /= n
			row.OverlapMS /= n
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// newDistCluster builds the leader for one comparison point: an in-process
// channel cluster, or real dist/rpc domain servers on loopback listeners
// plus an rpc transport pointed at them. cleanup tears the servers down.
func newDistCluster(n *topology.Network, domains int, transport DistTransport) (*dist.Cluster, func(), error) {
	switch transport {
	case TransportInproc:
		return dist.NewCluster(n.G, domains, chain.Options{}), func() {}, nil
	case TransportRPC:
		servers := make([]*distrpc.Server, 0, domains)
		addrs := make([]string, 0, domains)
		cleanup := func() {
			for _, s := range servers {
				s.Close()
			}
		}
		for i := 0; i < domains; i++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				cleanup()
				return nil, nil, fmt.Errorf("exp: listen for domain %d: %w", i, err)
			}
			srv := distrpc.Serve(lis, dist.NewDomain(n.G, chain.Options{}))
			servers = append(servers, srv)
			addrs = append(addrs, srv.Addr())
		}
		tr := distrpc.NewTransport(addrs)
		cluster := dist.NewClusterWith(n.G, domains, dist.Config{Transport: tr, RetryBudget: 1})
		return cluster, func() { tr.Close(); cleanup() }, nil
	default:
		return nil, nil, fmt.Errorf("exp: unknown dist transport %q", transport)
	}
}

// DefaultRequest builds the Section VIII-A default request on kind — the
// request a sofdomain-backed leader must use, since request randomness and
// topology construction share the seed the domain processes were started
// with.
func DefaultRequest(kind NetKind, seed int64, inetNodes int) (*topology.Network, core.Request, error) {
	return defaultRequest(kind, seed, inetNodes)
}

// defaultRequest builds the Section VIII-A default request on kind.
func defaultRequest(kind NetKind, seed int64, inetNodes int) (*topology.Network, core.Request, error) {
	n, err := buildNet(kind, DefaultVMs, seed, 1, inetNodes)
	if err != nil {
		return nil, core.Request{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	return n, core.Request{
		Sources:  n.RandomNodes(rng, DefaultSources),
		Dests:    n.RandomNodes(rng, DefaultDests),
		ChainLen: DefaultChain,
	}, nil
}

// FormatDistTable renders the rows as a text table.
func FormatDistTable(rows []DistRow) string {
	var b strings.Builder
	b.WriteString("Distributed SOFDA (Section VI): per-domain candidate generation + leader completion\n")
	fmt.Fprintf(&b, "%-10s %-8s %8s %14s %14s %7s %12s %12s %8s %8s %10s\n",
		"network", "via", "domains", "central-cost", "dist-cost", "match", "central-ms", "dist-ms",
		"frags", "pruned", "overlap-ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8s %8d %14.2f %14.2f %7v %12.2f %12.2f %8.1f %8.1f %10.2f\n",
			r.Net, r.Transport, r.Domains, r.CentralCost, r.DistCost, r.Match, r.CentralMS, r.DistMS,
			r.Fragments, r.Pruned, r.OverlapMS)
	}
	return b.String()
}
