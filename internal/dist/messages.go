package dist

import (
	"errors"
	"math"
	"sync"

	"sof/internal/chain"
	"sof/internal/graph"
)

// CandidateRequest is one leader→domain candidate-generation assignment:
// compute a service chain for every Pair over the candidate VM set. It is
// the wire message of the distributed protocol — every field is a plain
// value type so the request crosses a gob-encoded RPC boundary unchanged.
type CandidateRequest struct {
	// CostEpoch is the leader graph's cost epoch at request-build time,
	// and GraphDigest a content hash of the leader's topology, costs and
	// blocked elements (see GraphDigest). The digest decides the
	// handshake: a domain whose digest disagrees answers with its own
	// values and no results instead of solving (see Domain.AnswerStream),
	// and the leader falls back locally — this catches wrong-seed/wrong-net
	// domains and failures a domain never saw, which epoch counters
	// cannot, while epoch counters that merely drifted over identical
	// graphs do not refuse. The epoch is carried for observability and as
	// the digest memo's cheap staleness key.
	//
	// GraphDigest 0 skips the digest handshake: the leader stamps it for
	// the transport it created itself over its own graph, where leader
	// and domains literally share one *graph.Graph and hashing it per
	// re-pricing step would verify the graph against itself. Wire
	// transports always carry a real digest (GraphDigest the function
	// never returns 0).
	CostEpoch   uint64
	GraphDigest uint64
	// ChainLen is the number of VNFs per chain (|C| in the paper).
	ChainLen int
	// Parallelism bounds the domain's candidate-generation workers:
	// GOMAXPROCS when <= 0, sequential when 1.
	Parallelism int
	// VMs is the candidate VM set, in the leader's canonical order. The
	// order is part of the protocol: the k-stroll instances a domain
	// builds depend on it, and the leader's completion phase assumes the
	// centralized instance bit for bit.
	VMs []graph.NodeID
	// Pairs are the (source, last VM) queries assigned to this domain, in
	// the leader's enumeration order for the domain.
	Pairs []chain.Pair
	// SourceSetup is the leader's chain.Options.SourceSetupCost. It is
	// part of the graph-state handshake: a domain whose oracle prices
	// source setup differently would return correctly-routed but
	// differently-costed chains that epoch and digest cannot catch.
	SourceSetup bool
	// Timeout is the leader's remaining context budget in nanoseconds, 0
	// when the context has no deadline. Transports that cross a process
	// boundary stamp it so the remote domain observes the same
	// cancellation horizon the in-process oracle would; a relative
	// duration, not a wall-clock instant, so clock skew between machines
	// cannot shift or instantly expire it. In-process transports share
	// the context directly and leave it 0.
	Timeout int64
}

// CandidateResult is one pair's outcome on the wire. Exactly one of Chain
// and Err is meaningful: a feasible chain, or the domain-side failure
// (unreachable VMs, too few candidates) flattened to a string so it
// survives gob encoding.
type CandidateResult struct {
	Pair  chain.Pair
	Chain *chain.ServiceChain
	Err   string
}

// FragmentResult is one pair's outcome inside a streamed fragment. Index
// locates the result in the originating CandidateRequest's Pairs slice, so
// fragments are self-splicing: a domain may emit results in completion
// order (maximizing leader overlap) and the leader still restores the
// request order exactly.
type FragmentResult struct {
	Index  int
	Result CandidateResult
}

// CandidateFragment is one message of the server-streaming candidate
// exchange: a domain answers a CandidateRequest with an ordered sequence
// of fragments, so the leader can splice candidates into the auxiliary
// graph while slower domains are still solving.
//
// Every fragment — including the trailer — carries the domain's cost
// epoch, graph digest, and source-setup pricing. The digest decides the
// handshake (a refusal is a well-formed Done fragment carrying the
// domain's own values and no results, so the sentinel survives any codec),
// and the per-fragment epoch stamp makes a mid-stream re-pricing on the
// domain observable: the leader counts epoch drift, and on wire transports
// a re-pricing also moves the digest, which refuses the remainder of the
// stream.
type CandidateFragment struct {
	CostEpoch   uint64
	GraphDigest uint64
	SourceSetup bool
	// Seq numbers fragments within one exchange, starting at 0; the
	// trailer carries the highest Seq.
	Seq int
	// Results are the pair outcomes this fragment delivers; empty on the
	// trailer and on a handshake refusal.
	Results []FragmentResult
	// Done marks the trailer: no further fragments follow this exchange.
	Done bool
	// Err is a batch-level failure flattened to a string (Done trailers
	// only) — a remote context error, never a per-pair infeasibility,
	// which travels inside Results.
	Err string
}

// ErrGraphMismatch reports that a domain's view of the network (topology
// digest or source-setup pricing) differed from the leader's when it was
// asked. The leader treats it as non-retryable — a re-send would see the
// same graphs — and falls back to its local oracle instead.
var ErrGraphMismatch = errors.New("dist: domain graph state differs from leader's (topology digest / source setup)")

// GraphDigest is an FNV-1a content hash of a graph's structure, costs and
// blocked elements: node count, per-node setup cost and VM flag, every
// edge's endpoints and cost, and the ids of the failed or capacity-masked
// edges and nodes. Two graphs built by the same deterministic constructor
// agree on it; a domain started with the wrong seed or topology does not —
// which the cost epoch alone cannot detect, since it only counts
// mutations — and neither does a domain that never saw a link failure the
// leader routes around. An empty blocked set mixes nothing, so an open
// graph hashes as it would with no failure layer at all.
func GraphDigest(g *graph.Graph) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(uint64(g.NumNodes()))
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		mix(math.Float64bits(g.NodeCost(id)))
		if g.IsVM(id) {
			mix(1)
		} else {
			mix(0)
		}
	}
	mix(uint64(g.NumEdges()))
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		mix(uint64(ed.U))
		mix(uint64(ed.V))
		mix(math.Float64bits(ed.Cost))
	}
	blocked := g.Blocked()
	if edges, nodes := blocked.FailedEdges(), blocked.FailedNodes(); len(edges)+len(nodes) > 0 {
		mix(uint64(len(edges)))
		for _, e := range edges {
			mix(uint64(e))
		}
		mix(uint64(len(nodes)))
		for _, n := range nodes {
			mix(uint64(n))
		}
	}
	if h == 0 {
		// 0 is the protocol's "skip the digest handshake" marker; keep
		// real digests out of it.
		h = 1
	}
	return h
}

// digestMemo caches one graph's digest keyed by its cost epoch, so the
// per-request handshake pays an atomic epoch load instead of an O(V+E)
// hash while costs are stable. It assumes topology changes bump the epoch
// or do not happen on a served graph — true for every graph here: the
// cost setters and every failure or mask transition bump on change, and
// the aux graph is an overlay that never grows the network it sits on.
type digestMemo struct {
	mu     sync.Mutex
	valid  bool
	epoch  uint64
	digest uint64
}

func (m *digestMemo) of(g *graph.Graph) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Read under the lock: a re-pricing that landed while waiting must
	// not stamp the freshly hashed digest with the pre-mutation epoch.
	epoch := g.CostEpoch()
	if !m.valid || m.epoch != epoch {
		m.digest = GraphDigest(g)
		m.epoch = epoch
		m.valid = true
	}
	return m.digest
}

// WireResults flattens oracle results into their wire form, preserving
// order. Per-pair errors become strings; batch-level errors (cancellation)
// are the caller's to handle before calling this.
func WireResults(rs []chain.Result) []CandidateResult {
	out := make([]CandidateResult, len(rs))
	for i, r := range rs {
		out[i] = CandidateResult{Pair: r.Pair, Chain: r.Chain}
		if r.Err != nil {
			out[i].Err = r.Err.Error()
			out[i].Chain = nil
		}
	}
	return out
}
