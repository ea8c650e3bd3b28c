package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"sof/internal/graph"
)

// generatorDigests are the SHA-256 digests (see digest) of every
// generator's network at seeds 0–2. Inet runs at n nodes, 2n links and
// n/10 data centers, and every network has 25 VMs. Testbed ignores the
// seed, so its three digests are equal.
var generatorDigests = map[string]string{
	"softlayer/seed0": "6e4f58f3d896f2d894d36a3670f1f6f2bbeed8b15f54a6e5436e50ea916cc37e",
	"softlayer/seed1": "a6ef09cc7bf5f5cd0270b2603ea6b2124b0cfb74c392a6e8f7f43659e3a21fb8",
	"softlayer/seed2": "412f06cc91e6399d9af1fb4d0d184e8fe8bba7f959492d3315c27a02283177e2",
	"cogent/seed0":    "37ad40195108a0abb80b7b408bc1c535b0e52318009716c76f0c50f1174773f5",
	"cogent/seed1":    "c20bc4fc442691e0abb8f005a84d0346b519b7e8ae75f6aba18db08d3c1bb8e7",
	"cogent/seed2":    "42654a7e0ea5fc47e3d64e6e9d90a5679afea535c24e6e4ae356860dacc5ee8e",
	"testbed/seed0":   "778a417da701bc8f8e7f12022b470c239e01580731a6390db54e9f30bcd3a7fc",
	"testbed/seed1":   "778a417da701bc8f8e7f12022b470c239e01580731a6390db54e9f30bcd3a7fc",
	"testbed/seed2":   "778a417da701bc8f8e7f12022b470c239e01580731a6390db54e9f30bcd3a7fc",
	"inet300/seed0":   "e2885ef948a9f56d2c8c051c1a61d9d808f75a0a183ae68aa4203dd54f39a85c",
	"inet300/seed1":   "98c59b4de5ca0c7d33be19406b476cb7bbfd7911cb93c48ddb2bc87bb90f3e12",
	"inet300/seed2":   "d3a2735718f372efbc662efd355e2207c414e6643fd110c5759a1deddd0d5996",
	"inet1000/seed0":  "c53b9a95442328f12552872cfd4e0cb894ba538ae2ef1dc255bf19ec0a542af9",
	"inet1000/seed1":  "013f2e2dd56858d0532d0f405b1ccb162ca02213566fa356029ffa6efd37d7a3",
	"inet1000/seed2":  "01c8b22072a0f0826d77d5f82c0d53bd7de4193a9dfbca0bedfe9bbfb3c96603",
	"inet5000/seed0":  "c3e3f9043ec4a2ed1565c9622a0b11200e64e0104815b773d8280853b966c967",
	"inet5000/seed1":  "5fc05f53946043af112e43e5c73f5d119c5c211cb480c3de0e1813c79128575a",
	"inet5000/seed2":  "9b995bbcee504372d9c0b24124fb2553152297ff5a424b21524ec58d28d9de39",
}

// digest hashes everything a generator builds: the node roles, every
// node's kind, cost and name, every edge's endpoints and cost, and every
// node's arcs in order.
func digest(net *Network) string {
	h := sha256.New()
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	ids := func(s []graph.NodeID) {
		word(uint64(len(s)))
		for _, v := range s {
			word(uint64(v))
		}
	}
	ids(net.Access)
	ids(net.DataCenters)
	ids(net.VMs)
	g := net.G
	word(uint64(g.NumNodes()))
	for v := 0; v < g.NumNodes(); v++ {
		n := g.Node(graph.NodeID(v))
		word(uint64(n.Kind))
		word(math.Float64bits(n.Cost))
		word(uint64(len(n.Name)))
		h.Write([]byte(n.Name))
	}
	word(uint64(g.NumEdges()))
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(graph.EdgeID(id))
		word(uint64(e.U))
		word(uint64(e.V))
		word(math.Float64bits(e.Cost))
	}
	for v := 0; v < g.NumNodes(); v++ {
		arcs := g.Adj(graph.NodeID(v))
		word(uint64(len(arcs)))
		for _, a := range arcs {
			word(uint64(a.To))
			word(uint64(a.Edge))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests pins every generator's output, arc order
// included, so a rewrite of a generator or of the graph it builds cannot
// change a network unseen.
func TestGeneratorDigests(t *testing.T) {
	build := map[string]func(Config) (*Network, error){
		"softlayer": func(c Config) (*Network, error) { return SoftLayer(c), nil },
		"cogent":    func(c Config) (*Network, error) { return Cogent(c), nil },
		"testbed":   func(c Config) (*Network, error) { return Testbed(c), nil },
	}
	for _, n := range []int{300, 1000, 5000} {
		build[fmt.Sprintf("inet%d", n)] = func(c Config) (*Network, error) { return Inet(n, 2*n, n/10, c) }
	}
	for name, gen := range build {
		for seed := int64(0); seed < 3; seed++ {
			key := fmt.Sprintf("%s/seed%d", name, seed)
			net, err := gen(Config{NumVMs: 25, Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got, want := digest(net), generatorDigests[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
	}
}
