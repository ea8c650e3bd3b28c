// Package exp is the benchmark harness: one runner per table/figure of the
// paper's evaluation (Section VIII). Each runner regenerates the same rows
// or series the paper plots, over the reconstructed topologies, and is
// shared by bench_test.go and cmd/experiments.
package exp

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"sof"
	"sof/internal/costmodel"
	"sof/internal/emu"
	"sof/internal/online"
	"sof/internal/topology"
)

// Paper parameter sets (Section VIII-A).
var (
	SweepSources = []int{2, 8, 14, 20, 26}
	SweepDests   = []int{2, 4, 6, 8, 10}
	SweepVMs     = []int{5, 15, 25, 35, 45}
	SweepChain   = []int{3, 4, 5, 6, 7}
)

// Defaults per Section VIII-A.
const (
	DefaultSources = 14
	DefaultDests   = 6
	DefaultVMs     = 25
	DefaultChain   = 3
)

// NetKind selects the evaluation topology.
type NetKind string

// Topologies of Section VIII-A.
const (
	NetSoftLayer NetKind = "softlayer"
	NetCogent    NetKind = "cogent"
	NetInet      NetKind = "inet"
)

// BuildNet instantiates an evaluation topology deterministically: two
// processes calling it with equal arguments build bit-identical networks,
// including the graph's cost epoch — which is how cmd/sofdomain and a
// leader agree on the network without shipping it over the wire.
func BuildNet(kind NetKind, numVMs int, seed int64, inetNodes int) (*topology.Network, error) {
	return buildNet(kind, numVMs, seed, 1, inetNodes)
}

// buildNet instantiates the topology with the given VM count.
func buildNet(kind NetKind, numVMs int, seed int64, setupMult float64, inetNodes int) (*topology.Network, error) {
	cfg := topology.Config{NumVMs: numVMs, Seed: seed, SetupCostMultiplier: setupMult}
	switch kind {
	case NetSoftLayer:
		return topology.SoftLayer(cfg), nil
	case NetCogent:
		return topology.Cogent(cfg), nil
	case NetInet:
		if inetNodes == 0 {
			inetNodes = 1000
		}
		return topology.Inet(inetNodes, 2*inetNodes, inetNodes/10, cfg)
	default:
		return nil, fmt.Errorf("exp: unknown network %q", kind)
	}
}

// Row is one x-axis point of a figure: values keyed by algorithm name. N
// is the number of instances a cost sweep's row averages, the same for
// every column; other series leave it 0.
type Row struct {
	X      int
	N      int
	Values map[string]float64
}

// Series is one sub-figure.
type Series struct {
	Title  string
	XLabel string
	Algos  []string
	Rows   []Row
}

// Format renders the series as an aligned text table, with a last column
// n when the rows count the instances they average.
func (s *Series) Format() string {
	counted := slices.ContainsFunc(s.Rows, func(r Row) bool { return r.N > 0 })
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-14s", s.Title, s.XLabel)
	for _, a := range s.Algos {
		fmt.Fprintf(&b, "%12s", a)
	}
	if counted {
		fmt.Fprintf(&b, "%6s", "n")
	}
	b.WriteByte('\n')
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-14d", r.X)
		for _, a := range s.Algos {
			if v, ok := r.Values[a]; ok {
				fmt.Fprintf(&b, "%12.1f", v)
			} else {
				fmt.Fprintf(&b, "%12s", "-")
			}
		}
		if counted {
			fmt.Fprintf(&b, "%6d", r.N)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SweepParam names the swept request dimension of Figs. 8–10.
type SweepParam string

// Swept dimensions.
const (
	ParamSources SweepParam = "sources"
	ParamDests   SweepParam = "dests"
	ParamVMs     SweepParam = "vms"
	ParamChain   SweepParam = "chain"
)

func sweepValues(p SweepParam) []int {
	switch p {
	case ParamSources:
		return SweepSources
	case ParamDests:
		return SweepDests
	case ParamVMs:
		return SweepVMs
	default:
		return SweepChain
	}
}

// CostSweep reproduces one sub-figure of Figs. 8 (SoftLayer, with the
// exact optimum standing in for CPLEX), 9 (Cogent), or 10 (Inet): total
// forest cost vs the swept parameter, averaged over runs random requests.
// withOptimal adds the sofexact line (paper: CPLEX, SoftLayer only).
func CostSweep(kind NetKind, param SweepParam, runs int, withOptimal bool, inetNodes int) (*Series, error) {
	algos := []string{"SOFDA", "eNEMP", "eST", "ST"}
	if withOptimal {
		algos = append(algos, "OPT")
	}
	s := &Series{
		Title:  fmt.Sprintf("cost vs #%s on %s", param, kind),
		XLabel: string(param),
		Algos:  algos,
	}
	for _, x := range sweepValues(param) {
		row, err := costPoint(kind, param, x, runs, algos, inetNodes)
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// costPoint solves the runs instances of one sweep point with every
// algorithm and averages each column over the same instances: those every
// heuristic solved, and of those the ones OPT proved, when it proved any.
// OPT is proven within its branch budget on few instances, so averaging
// each column over the instances it alone solved would set OPT's mean
// over one instance beside a heuristic's over three, and could print OPT
// above a heuristic, which no single instance can do.
func costPoint(kind NetKind, param SweepParam, x, runs int, algos []string, inetNodes int) (Row, error) {
	nSrc, nDst, nVM, chainLen := DefaultSources, DefaultDests, DefaultVMs, DefaultChain
	switch param {
	case ParamSources:
		nSrc = x
	case ParamDests:
		nDst = x
	case ParamVMs:
		nVM = x
	case ParamChain:
		chainLen = x
	}
	var solved []map[string]float64 // per instance, cost by algorithm
	for r := 0; r < runs && chainLen <= nVM; r++ {
		seed := int64(r)*1001 + int64(x)
		net, err := buildNet(kind, nVM, seed, 1, inetNodes)
		if err != nil {
			return Row{}, err
		}
		rng := rand.New(rand.NewSource(seed))
		req := sof.Request{
			Sources:      net.RandomNodes(rng, min(nSrc, len(net.Access))),
			Destinations: net.RandomNodes(rng, min(nDst, len(net.Access))),
			ChainLength:  chainLen,
		}
		// One session per instance: all algorithms of the comparison
		// share its shortest-path cache, so the per-point Dijkstra work
		// is paid once rather than once per algorithm.
		solver := newSolver(net)
		costs := make(map[string]float64, len(algos))
		for _, a := range algos {
			if f, err := runAlgo(solver, a, req); err == nil {
				costs[a] = f
			}
		}
		solved = append(solved, costs)
	}
	cols := slices.DeleteFunc(slices.Clone(algos), func(a string) bool { return a == "OPT" })
	if len(cols) < len(algos) && slices.ContainsFunc(solved, func(costs map[string]float64) bool { return solvedBy(costs, algos) }) {
		cols = algos
	}
	row := Row{X: x, Values: make(map[string]float64, len(cols))}
	for _, costs := range solved {
		if !solvedBy(costs, cols) {
			continue
		}
		row.N++
		for _, a := range cols {
			row.Values[a] += costs[a]
		}
	}
	for _, a := range cols {
		if row.N > 0 {
			row.Values[a] /= float64(row.N)
		}
	}
	return row, nil
}

// solvedBy reports whether every algorithm of cols solved the instance
// with the given costs.
func solvedBy(costs map[string]float64, cols []string) bool {
	for _, a := range cols {
		if _, ok := costs[a]; !ok {
			return false
		}
	}
	return true
}

// newSolver opens the harness's standard session on net: all VMs of the
// topology as candidates and a small exact-solver branch budget — like the
// paper's CPLEX runs, the optimal line is produced only where optimality
// is proven quickly, so unprovable points fail fast instead of stalling a
// sweep.
func newSolver(net *topology.Network) *sof.Solver {
	return sof.NewSolver(sof.FromGraph(net.G),
		sof.WithVMs(net.VMs...),
		sof.WithExactBranchBudget(400))
}

// runAlgo embeds req through the session with the named algorithm. "OPT"
// maps to AlgorithmExact; its Dreyfus–Wagner core is exponential in the
// destination count, so oversized instances are refused up front.
func runAlgo(solver *sof.Solver, name string, req sof.Request) (float64, error) {
	algo := sof.Algorithm(name)
	if name == "OPT" {
		if len(req.Destinations) > 6 || req.ChainLength > 4 {
			return 0, fmt.Errorf("exp: instance too large for the exact solver")
		}
		algo = sof.AlgorithmExact
	}
	f, err := solver.EmbedAlgorithm(context.Background(), req, algo)
	if err != nil {
		return 0, err
	}
	return f.TotalCost(), nil
}

// Fig11 reproduces Figure 11: (a) cost and (b) average used VMs as the VM
// setup-cost multiplier sweeps 1x–9x for each chain length.
func Fig11(runs int) (costS, vmS *Series, err error) {
	mults := []int{1, 3, 5, 7, 9}
	var algoNames []string
	for _, c := range SweepChain {
		algoNames = append(algoNames, fmt.Sprintf("|C|=%d", c))
	}
	costS = &Series{Title: "Fig 11(a): cost vs setup-cost multiple", XLabel: "multiple", Algos: algoNames}
	vmS = &Series{Title: "Fig 11(b): used VMs vs setup-cost multiple", XLabel: "multiple", Algos: algoNames}
	for _, m := range mults {
		costRow := Row{X: m, Values: map[string]float64{}}
		vmRow := Row{X: m, Values: map[string]float64{}}
		for _, c := range SweepChain {
			var costSum, vmSum float64
			n := 0
			for r := 0; r < runs; r++ {
				seed := int64(r)*977 + int64(m*10+c)
				net := topology.SoftLayer(topology.Config{
					NumVMs: DefaultVMs, Seed: seed, SetupCostMultiplier: float64(m),
				})
				rng := rand.New(rand.NewSource(seed))
				req := sof.Request{
					Sources:      net.RandomNodes(rng, DefaultSources),
					Destinations: net.RandomNodes(rng, DefaultDests),
					ChainLength:  c,
				}
				f, err := newSolver(net).Embed(context.Background(), req)
				if err != nil {
					continue
				}
				costSum += f.TotalCost()
				vmSum += float64(len(f.UsedVMs()))
				n++
			}
			if n > 0 {
				costRow.Values[fmt.Sprintf("|C|=%d", c)] = costSum / float64(n)
				vmRow.Values[fmt.Sprintf("|C|=%d", c)] = vmSum / float64(n)
			}
		}
		costS.Rows = append(costS.Rows, costRow)
		vmS.Rows = append(vmS.Rows, vmRow)
	}
	return costS, vmS, nil
}

// Table1Row is one cell block of Table I: SOFDA runtime.
type Table1Row struct {
	Nodes   int
	Seconds map[int]float64 // keyed by |S|
}

// Table1 measures SOFDA's running time on Inet-style graphs of the paper's
// sizes (|V| from 1000 to 5000, |S| from 2 to 26).
func Table1(nodeSizes []int, srcCounts []int) ([]Table1Row, error) {
	if nodeSizes == nil {
		nodeSizes = []int{1000, 2000, 3000, 4000, 5000}
	}
	if srcCounts == nil {
		srcCounts = SweepSources
	}
	var out []Table1Row
	for _, n := range nodeSizes {
		row := Table1Row{Nodes: n, Seconds: make(map[int]float64, len(srcCounts))}
		net, err := topology.Inet(n, 2*n, n/5, topology.Config{NumVMs: DefaultVMs, Seed: int64(n)})
		if err != nil {
			return nil, err
		}
		for _, s := range srcCounts {
			rng := rand.New(rand.NewSource(int64(n + s)))
			req := sof.Request{
				Sources:      net.RandomNodes(rng, s),
				Destinations: net.RandomNodes(rng, DefaultDests),
				ChainLength:  DefaultChain,
			}
			// A fresh session per measurement keeps Table I a cold-cache
			// runtime, matching the paper's independent runs.
			start := time.Now()
			if _, err := newSolver(net).Embed(context.Background(), req); err != nil {
				return nil, err
			}
			row.Seconds[s] = time.Since(start).Seconds()
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatTable1 renders Table I.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table I: SOFDA running time (seconds)\n|V|      ")
	var srcs []int
	for s := range rows[0].Seconds {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	for _, s := range srcs {
		fmt.Fprintf(&b, "  |S|=%-4d", s)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9d", r.Nodes)
		for _, s := range srcs {
			fmt.Fprintf(&b, "  %-8.3f", r.Seconds[s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig12 reproduces the online accumulative-cost curves: one series per
// algorithm over arrivals on the given network.
func Fig12(kind NetKind, steps int) (*Series, error) {
	algos := []sof.Algorithm{sof.AlgorithmSOFDA, sof.AlgorithmENEMP, sof.AlgorithmEST, sof.AlgorithmST}
	s := &Series{
		Title:  fmt.Sprintf("Fig 12: accumulative cost on %s", kind),
		XLabel: "arrivals",
	}
	for _, a := range algos {
		s.Algos = append(s.Algos, string(a))
	}
	var cfg online.Config
	var net *topology.Network
	var err error
	switch kind {
	case NetSoftLayer:
		cfg = online.DefaultSoftLayerConfig()
		net, err = buildNet(kind, 85, 1, 1, 0) // 17 DCs × 5 VMs (Section VIII-A)
	case NetCogent:
		cfg = online.DefaultCogentConfig()
		net, err = buildNet(kind, 200, 1, 1, 0) // 40 DCs × 5 VMs
	default:
		return nil, fmt.Errorf("exp: Fig12 supports softlayer and cogent, got %q", kind)
	}
	if err != nil {
		return nil, err
	}
	curves := make(map[string][]online.Result, len(algos))
	for _, a := range algos {
		netCopy, err := buildNet(kind, len(net.VMs), 1, 1, 0)
		if err != nil {
			return nil, err
		}
		cfg.Seed = 42 // identical arrival sequence for every algorithm
		res, err := online.NewSimulator(netCopy, a, cfg).RunCtx(context.Background(), steps)
		if err != nil {
			return nil, err
		}
		curves[string(a)] = res
	}
	for i := 0; i < steps; i++ {
		row := Row{X: i + 1, Values: map[string]float64{}}
		for name, c := range curves {
			row.Values[name] = c[i].Accumulated
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// Table2Row is one line of Table II.
type Table2Row struct {
	Algorithm      string
	StartupOurs    float64
	StartupEmulab  float64
	RebufferOurs   float64
	RebufferEmulab float64
}

// Table2 reproduces the QoE experiment on both emulator profiles.
func Table2(runs int) ([]Table2Row, error) {
	var out []Table2Row
	for _, a := range []sof.Algorithm{sof.AlgorithmSOFDA, sof.AlgorithmENEMP, sof.AlgorithmEST} {
		tb, err := emu.EvaluateAveraged(a, emu.Testbed, runs)
		if err != nil {
			return nil, err
		}
		em, err := emu.EvaluateAveraged(a, emu.Emulab, runs)
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Row{
			Algorithm:      string(a),
			StartupOurs:    tb.AvgStartupSec,
			StartupEmulab:  em.AvgStartupSec,
			RebufferOurs:   tb.AvgRebufferSec,
			RebufferEmulab: em.AvgRebufferSec,
		})
	}
	return out, nil
}

// FormatTable2 renders Table II.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table II: startup latency / re-buffering time (seconds)\n")
	b.WriteString("Algorithm   Startup(ours)  Startup(emulab)  Rebuffer(ours)  Rebuffer(emulab)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s  %13.1f  %15.1f  %14.1f  %16.1f\n",
			r.Algorithm, r.StartupOurs, r.StartupEmulab, r.RebufferOurs, r.RebufferEmulab)
	}
	return b.String()
}

// Fig7 returns sample points of the Fortz–Thorup cost function (Figure 7).
func Fig7() *Series {
	s := &Series{Title: "Fig 7: cost function (p=1)", XLabel: "load(%)", Algos: []string{"cost"}}
	for _, pct := range []int{0, 20, 33, 50, 66, 80, 90, 100, 110, 120} {
		s.Rows = append(s.Rows, Row{
			X:      pct,
			Values: map[string]float64{"cost": costmodel.Cost(float64(pct)/100, 1)},
		})
	}
	return s
}
