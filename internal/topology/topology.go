// Package topology provides the evaluation networks of Section VIII: the
// IBM SoftLayer inter-data-center network (27 access nodes, 49 links, 17
// data centers), the Cogent backbone (190 access nodes, 260 links, 40 data
// centers), an Inet-style power-law synthetic generator (used at 5000
// nodes, 10000 links, 2000 data centers), and the 14-node/20-link
// experimental SDN testbed of Figure 13.
//
// The paper references the public SoftLayer and Cogent maps [58][59]
// without reproducing them; these topologies are deterministic
// reconstructions that match the paper's exact node/link/data-center
// counts and the general continental structure.
package topology

import (
	"fmt"
	"math/rand"

	"sof/internal/costmodel"
	"sof/internal/graph"
)

// Network is an evaluation topology: the graph plus the roles of its nodes.
type Network struct {
	G *graph.Graph
	// Access are the backbone switch nodes.
	Access []graph.NodeID
	// DataCenters is the subset of Access hosting data centers.
	DataCenters []graph.NodeID
	// VMs are the VM nodes attached to data centers.
	VMs []graph.NodeID
}

// Config controls VM placement and cost initialization.
type Config struct {
	// NumVMs is the number of VM nodes to attach to random data centers
	// (the paper sweeps {5, 15, 25, 35, 45}; default 25).
	NumVMs int
	// Seed drives all randomness (VM placement, initial loads).
	Seed int64
	// SetupCostMultiplier scales VM setup costs (Figure 11 sweeps 1x–9x;
	// default 1).
	SetupCostMultiplier float64
	// EdgeCostScale and SetupCostScale calibrate the absolute cost
	// magnitudes so that totals land in the paper's reported range
	// (Fig. 8: roughly 180–430 on SoftLayer with the default request).
	// Defaults: 10 and 5.
	EdgeCostScale  float64
	SetupCostScale float64
}

func (c Config) normalized() Config {
	if c.NumVMs == 0 {
		c.NumVMs = 25
	}
	if c.SetupCostMultiplier == 0 {
		c.SetupCostMultiplier = 1
	}
	if c.EdgeCostScale == 0 {
		c.EdgeCostScale = 10
	}
	if c.SetupCostScale == 0 {
		c.SetupCostScale = 5
	}
	return c
}

// build attaches VMs to data centers and assigns load-derived costs
// (Section VIII-A: link usage uniform in (0,1) priced by the Fortz–Thorup
// function; VM setup costs priced by host utilization).
func build(g *graph.Graph, access, dcs []graph.NodeID, cfg Config) *Network {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := &Network{G: g, Access: access, DataCenters: dcs}
	for i := 0; i < cfg.NumVMs; i++ {
		dc := dcs[rng.Intn(len(dcs))]
		hostUtil := rng.Float64()
		vm := g.AddVM(fmt.Sprintf("vm%d@%s", i, g.Node(dc).Name),
			costmodel.Cost(hostUtil, 1)*cfg.SetupCostScale*cfg.SetupCostMultiplier)
		// The VM sits inside the data center; its attachment link is
		// priced like any other link from its (low) initial utilization.
		g.MustAddEdge(dc, vm, costmodel.Cost(rng.Float64()*0.2, 1)*cfg.EdgeCostScale)
		net.VMs = append(net.VMs, vm)
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if g.IsVM(ed.U) || g.IsVM(ed.V) {
			continue // attachment links already priced
		}
		g.SetEdgeCost(graph.EdgeID(e), costmodel.Cost(rng.Float64(), 1)*cfg.EdgeCostScale)
	}
	return net
}

// RandomNodes draws n distinct access nodes (for sources/destinations).
func (n *Network) RandomNodes(rng *rand.Rand, count int) []graph.NodeID {
	return graph.SampleDistinct(rng, n.Access, count)
}

// softLayerSites are the 27 access nodes; starred entries host the 17 data
// centers (SoftLayer's public map, circa 2016).
var softLayerSites = []struct {
	name string
	dc   bool
}{
	{"sea", true}, {"sjc", true}, {"lax", false}, {"den", false},
	{"dal", true}, {"hou", true}, {"chi", false}, {"stl", false},
	{"atl", false}, {"mia", false}, {"wdc", true}, {"nyc", false},
	{"bos", false}, {"tor", true}, {"mon", true}, {"lon", true},
	{"ams", true}, {"fra", true}, {"par", true}, {"tok", true},
	{"osa", false}, {"hkg", true}, {"sng", true}, {"syd", true},
	{"mel", true}, {"sao", true}, {"mex", false},
}

// softLayerLinks are the 49 backbone links.
var softLayerLinks = [][2]string{
	// North America.
	{"sea", "sjc"}, {"sea", "den"}, {"sea", "chi"}, {"sjc", "lax"},
	{"sjc", "den"}, {"lax", "dal"}, {"den", "dal"}, {"den", "chi"},
	{"dal", "hou"}, {"dal", "stl"}, {"dal", "atl"}, {"hou", "atl"},
	{"hou", "mia"}, {"chi", "stl"}, {"chi", "nyc"}, {"chi", "tor"},
	{"stl", "atl"}, {"atl", "mia"}, {"atl", "wdc"}, {"mia", "wdc"},
	{"wdc", "nyc"}, {"nyc", "bos"}, {"bos", "mon"}, {"tor", "mon"},
	{"tor", "nyc"}, {"lax", "hou"},
	// Transatlantic.
	{"nyc", "lon"}, {"wdc", "ams"}, {"mon", "par"},
	// Europe.
	{"lon", "ams"}, {"lon", "par"}, {"ams", "fra"}, {"fra", "par"},
	{"lon", "fra"},
	// Transpacific.
	{"sea", "tok"}, {"sjc", "tok"}, {"lax", "hkg"},
	// Asia-Pacific.
	{"tok", "osa"}, {"osa", "hkg"}, {"hkg", "sng"}, {"tok", "hkg"},
	{"sng", "syd"}, {"syd", "mel"}, {"tok", "syd"},
	// Latin America.
	{"mia", "sao"}, {"dal", "mex"}, {"hou", "mex"}, {"mex", "sao"},
	// Europe–Asia.
	{"fra", "sng"},
}

// SoftLayer builds the IBM SoftLayer network: 27 access nodes, 49 links,
// 17 data centers.
func SoftLayer(cfg Config) *Network {
	g := graph.New(27+cfg.NumVMs, 49+cfg.NumVMs)
	ids := make(map[string]graph.NodeID, len(softLayerSites))
	var access, dcs []graph.NodeID
	for _, s := range softLayerSites {
		id := g.AddSwitch(s.name)
		ids[s.name] = id
		access = append(access, id)
		if s.dc {
			dcs = append(dcs, id)
		}
	}
	for _, l := range softLayerLinks {
		g.MustAddEdge(ids[l[0]], ids[l[1]], 1)
	}
	return build(g, access, dcs, cfg)
}

// Cogent builds the Cogent backbone: 190 access nodes, 260 links, 40 data
// centers. 40 hub cities form a ring with chords; each hub serves a small
// access cluster. Structure is deterministic; only costs and VM placement
// depend on cfg.Seed.
func Cogent(cfg Config) *Network {
	const (
		hubs      = 40
		accessPer = 150 // total non-hub access nodes
	)
	g := graph.New(190+cfg.NumVMs, 260+cfg.NumVMs)
	var access, dcs []graph.NodeID
	hubIDs := make([]graph.NodeID, hubs)
	for i := 0; i < hubs; i++ {
		id := g.AddSwitch(fmt.Sprintf("hub%02d", i))
		hubIDs[i] = id
		access = append(access, id)
		dcs = append(dcs, id)
	}
	// Hub ring (40 links) + 8 long-haul chords: the Cogent backbone is
	// geographically stretched, so the ring dominates and inter-region
	// distances are long.
	linked := pairSet{}
	for i := 0; i < hubs; i++ {
		linked.link(g, hubIDs[i], hubIDs[(i+1)%hubs])
	}
	structRNG := rand.New(rand.NewSource(42)) // fixed: topology is static
	chords := 0
	for chords < 8 {
		a := structRNG.Intn(hubs)
		b := (a + hubs/4 + structRNG.Intn(hubs/2)) % hubs
		if a == b || linked.has(hubIDs[a], hubIDs[b]) {
			continue
		}
		linked.link(g, hubIDs[a], hubIDs[b])
		chords++
	}
	// Access clusters: 150 nodes, each linked to its hub (150 links), plus
	// 62 cross links between access nodes of the same or adjacent regions
	// (metro rings).
	accNodes := make([]graph.NodeID, 0, accessPer)
	for i := 0; i < accessPer; i++ {
		hub := i % hubs
		id := g.AddSwitch(fmt.Sprintf("acc%03d@hub%02d", i, hub))
		accNodes = append(accNodes, id)
		access = append(access, id)
		linked.link(g, hubIDs[hub], id)
	}
	cross := 0
	for cross < 62 {
		i := structRNG.Intn(accessPer)
		// Partner within the same or a neighbouring region to keep the
		// backbone geographically long.
		j := (i + hubs*structRNG.Intn(2) + 1) % accessPer
		if i == j || linked.has(accNodes[i], accNodes[j]) {
			continue
		}
		linked.link(g, accNodes[i], accNodes[j])
		cross++
	}
	return build(g, access, dcs, cfg)
}

// Inet builds a synthetic power-law topology in the style of the Inet
// generator [60]: a random spanning tree plus degree-proportional
// (preferential) chords. The paper uses nodes=5000, links=10000, dcs=2000.
func Inet(nodes, links, numDCs int, cfg Config) (*Network, error) {
	if nodes < 2 || links < nodes-1 || numDCs > nodes {
		return nil, fmt.Errorf("topology: bad Inet parameters (%d nodes, %d links, %d DCs)", nodes, links, numDCs)
	}
	g := graph.New(nodes+cfg.NumVMs, links+cfg.NumVMs)
	structRNG := rand.New(rand.NewSource(cfg.Seed ^ 0x1e7))
	access := make([]graph.NodeID, nodes)
	for i := 0; i < nodes; i++ {
		access[i] = g.AddSwitch(fmt.Sprintf("n%d", i))
	}
	degree := make([]int, nodes)
	linked := make(pairSet, links)
	// Spanning tree with preferential attachment: node i connects to an
	// earlier node chosen proportionally to degree+1, producing the
	// heavy-tailed degrees Inet targets.
	totalWeight := 1
	for i := 1; i < nodes; i++ {
		pick := structRNG.Intn(totalWeight)
		j := 0
		acc := 0
		for k := 0; k < i; k++ {
			acc += degree[k] + 1
			if pick < acc {
				j = k
				break
			}
		}
		linked.link(g, access[i], access[j])
		degree[i]++
		degree[j]++
		totalWeight += 3 // new node weight 1 + two degree increments
	}
	for g.NumEdges() < links {
		a := structRNG.Intn(nodes)
		// Preferential endpoint.
		pick := structRNG.Intn(2*g.NumEdges() + nodes)
		b := 0
		acc := 0
		for k := 0; k < nodes; k++ {
			acc += degree[k] + 1
			if pick < acc {
				b = k
				break
			}
		}
		if a == b || linked.has(access[a], access[b]) {
			continue
		}
		linked.link(g, access[a], access[b])
		degree[a]++
		degree[b]++
	}
	// Data centers at the best-connected nodes (Inet places infrastructure
	// at high-degree ASes).
	type nd struct {
		id  graph.NodeID
		deg int
	}
	byDeg := make([]nd, nodes)
	for i := range byDeg {
		byDeg[i] = nd{id: access[i], deg: degree[i]}
	}
	for i := 1; i < len(byDeg); i++ { // insertion sort by degree desc, stable
		for j := i; j > 0 && byDeg[j].deg > byDeg[j-1].deg; j-- {
			byDeg[j], byDeg[j-1] = byDeg[j-1], byDeg[j]
		}
	}
	dcs := make([]graph.NodeID, numDCs)
	for i := 0; i < numDCs; i++ {
		dcs[i] = byDeg[i].id
	}
	return build(g, access, dcs, cfg), nil
}

// pairSet holds the node pairs a generator linked, each once whatever
// its order, so the generator can skip a linked pair without reading the
// graph it is still building: a read of a growing graph's adjacency
// rebuilds it.
type pairSet map[[2]graph.NodeID]bool

// link adds a unit-cost link between u and v to g and records the pair.
func (s pairSet) link(g *graph.Graph, u, v graph.NodeID) {
	g.MustAddEdge(u, v, 1)
	s[[2]graph.NodeID{min(u, v), max(u, v)}] = true
}

// has reports whether u and v were linked.
func (s pairSet) has(u, v graph.NodeID) bool {
	return s[[2]graph.NodeID{min(u, v), max(u, v)}]
}

// testbedLinks is the 14-node/20-link experimental SDN of Figure 13
// (reconstructed: the published figure shows a two-tier mesh).
var testbedLinks = [][2]int{
	{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 4}, {2, 5}, {3, 5}, {3, 6},
	{4, 7}, {4, 8}, {5, 8}, {5, 9}, {6, 9}, {7, 10}, {8, 10}, {8, 11},
	{9, 11}, {10, 12}, {11, 13}, {12, 13},
}

// Testbed builds the Figure-13 experimental SDN: 14 nodes, 20 links.
// Per Section VIII-D every node can host one VNF, so each node gets one
// attached VM (setup cost 1).
func Testbed(cfg Config) *Network {
	g := graph.New(28, 34)
	var access []graph.NodeID
	for i := 0; i < 14; i++ {
		access = append(access, g.AddSwitch(fmt.Sprintf("sw%d", i)))
	}
	for _, l := range testbedLinks {
		g.MustAddEdge(access[l[0]], access[l[1]], 1)
	}
	net := &Network{G: g, Access: access, DataCenters: access}
	for i, a := range access {
		vm := g.AddVM(fmt.Sprintf("vm%d", i), 1)
		g.MustAddEdge(a, vm, 0.1)
		net.VMs = append(net.VMs, vm)
	}
	return net
}
