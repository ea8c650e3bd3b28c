package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
)

// The operations FuzzDynamicOps draws from: the dynamic reconfigurations
// of Section VII-C and the repair tier.
const (
	dynJoin = iota
	dynLeave
	dynInsert
	dynRemove
	dynMigrate
	dynReroute
	dynRepair
	dynOps
)

// dynRun is one FuzzDynamicOps instance: a network, the oracle every
// operation shares, the embedded forest, and the endpoints it serves.
// rejoin is set when the last operation was a repair that reported an
// orphan failed which could still join the repaired forest.
type dynRun struct {
	g       *graph.Graph
	oracle  *chain.Oracle
	f       *Forest
	sources []graph.NodeID
	dests   []graph.NodeID
	rejoin  error
}

// newDynRun builds the instance of seed: a random connected network of
// 12–31 nodes, endpoints drawn from every node, VMs included, and a chain
// of 0–2 VNFs, embedded by SOFDA-SS or SOFDA. It returns nil when the
// embed fails.
func newDynRun(seed int64) *dynRun {
	rng := rand.New(rand.NewSource(seed))
	n := 12 + rng.Intn(20)
	g := graph.RandomConnected(graph.RandomConfig{
		Nodes: n, ExtraEdges: rng.Intn(2 * n), VMFraction: 0.25 + 0.5*rng.Float64(), MaxEdge: 8, MaxSetup: 5,
	}, seed)
	all := make([]graph.NodeID, n)
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	r := &dynRun{g: g, oracle: chain.NewOracle(g, chain.Options{})}
	chainLen, single := rng.Intn(3), rng.Intn(2) == 0
	r.sources = graph.SampleDistinct(rng, all, 1+rng.Intn(2))
	r.dests = graph.SampleDistinct(rng, all, 1+rng.Intn(4))
	opts := &Options{Oracle: r.oracle}
	var err error
	if single {
		r.sources = r.sources[:1]
		r.f, err = SOFDASSCtx(context.Background(), g, r.sources[0], r.dests, chainLen, opts)
	} else {
		r.f, err = SOFDACtx(context.Background(), g, Request{Sources: r.sources, Dests: r.dests, ChainLen: chainLen}, opts)
	}
	if err != nil {
		return nil
	}
	return r
}

// step applies operation op with argument arg. It returns the outcome as
// text, a repair's report included, whether a failure must leave the
// forest untouched, and the operation's error.
func (r *dynRun) step(op, arg byte) (string, bool, error) {
	f, g, vms := r.f, r.g, r.g.VMs()
	n := graph.NodeID(g.NumNodes())
	pick := func(ids []graph.NodeID) graph.NodeID {
		if len(ids) == 0 {
			return graph.NodeID(arg) % n
		}
		return ids[int(arg)%len(ids)]
	}
	used := func() (graph.EdgeID, bool) {
		edges := f.Footprint().Edges
		if len(edges) == 0 {
			return graph.NoEdge, false
		}
		return edges[int(arg)%len(edges)], true
	}
	var err error
	r.rejoin = nil
	switch op % dynOps {
	case dynJoin:
		d := graph.NodeID(arg) % n
		if _, err = f.Join(r.oracle, vms, d); err == nil {
			r.dests = append(r.dests, d)
		}
		return fmt.Sprint("join ", d, ": ", err), true, err
	case dynLeave:
		d := pick(r.dests)
		if _, err = f.Leave(d); err == nil {
			r.dests = slices.DeleteFunc(r.dests, func(x graph.NodeID) bool { return x == d })
		}
		return fmt.Sprint("leave ", d, ": ", err), true, err
	case dynInsert:
		j := 1 + int(arg)%(f.ChainLen()+2)
		err = f.InsertVNF(r.oracle, vms, j)
		return fmt.Sprint("insert ", j, ": ", err), true, err
	case dynRemove:
		j := 1 + int(arg)%(f.ChainLen()+1)
		err = f.RemoveVNF(j)
		return fmt.Sprint("remove ", j, ": ", err), true, err
	case dynMigrate:
		v := pick(f.UsedVMs())
		err = f.MigrateOverloadedVM(r.oracle, vms, v)
		return fmt.Sprint("migrate ", v, ": ", err), true, err
	case dynReroute:
		e, ok := used()
		if !ok {
			return "reroute: no edge", false, nil
		}
		g.SetEdgeCost(e, 2*g.EdgeCost(e)+10)
		moved, err := f.RerouteCongestedEdge(r.oracle, e)
		return fmt.Sprint("reroute ", e, ": ", moved, " ", err), false, err
	default:
		e, ok := used()
		if !ok {
			e = graph.EdgeID(int(arg) % g.NumEdges())
		}
		g.FailEdge(e)
		rep, err := f.Repair(r.oracle, vms)
		if rep != nil {
			r.rejoin = r.joinable(rep.Failed, vms)
		}
		g.RestoreEdge(e)
		out := fmt.Sprint("repair ", e, ": ", err)
		if rep != nil {
			out += fmt.Sprintf("; orphans %d reattached %d delta %x",
				rep.Orphans, rep.Reattached, math.Float64bits(rep.CostDelta))
			for _, fl := range rep.Failed {
				out += fmt.Sprint("; failed ", fl.Dest, ": ", fl.Err)
				r.dests = slices.DeleteFunc(r.dests, func(x graph.NodeID) bool { return x == fl.Dest })
			}
		}
		return out, false, err
	}
}

// joinable returns an error naming the first failed orphan, its node
// alive, that a copy of the repaired forest can still Join under the
// failure, or nil when there is none.
func (r *dynRun) joinable(failed []RepairFailure, vms []graph.NodeID) error {
	for _, fl := range failed {
		if r.g.Failures().NodeFailed(fl.Dest) {
			continue
		}
		c := snapshot(r.f)
		c.g = r.g
		if _, err := c.Join(r.oracle, vms, fl.Dest); err == nil {
			return fmt.Errorf("repair failed destination %d (%v), yet it joins the repaired forest", fl.Dest, fl.Err)
		}
	}
	return nil
}

// snapshot is a deep copy of f's state, its network left out, for
// comparing forests across operations and across copies.
func snapshot(f *Forest) Forest {
	s := *f
	s.g = nil
	s.clones, s.roots = slices.Clone(f.clones), slices.Clone(f.roots)
	s.owner, s.dests = maps.Clone(f.owner), maps.Clone(f.dests)
	return s
}

// check reports the first broken invariant of r after an operation.
func (r *dynRun) check() error {
	if r.rejoin != nil {
		return r.rejoin
	}
	if err := r.f.Validate(r.sources, r.dests); err != nil {
		return err
	}
	if got, want := r.f.Destinations(), slices.Sorted(slices.Values(r.dests)); !slices.Equal(got, want) {
		return fmt.Errorf("forest serves %v, want %v", got, want)
	}
	fp, sum := r.f.Footprint(), 0.0
	for _, e := range fp.Edges {
		sum += r.g.EdgeCost(e)
	}
	for _, v := range fp.VMs {
		sum += r.g.NodeCost(v)
	}
	if total := r.f.TotalCost(); math.Abs(total-sum) > 1e-9*max(1, math.Abs(sum)) {
		return fmt.Errorf("TotalCost %v, footprint sums to %v", total, sum)
	}
	return nil
}

// FuzzDynamicOps replays a script of dynamic operations on a random
// embedded forest. After every operation the forest must validate for the
// destinations it serves and cost what its footprint costs; a failed Join,
// Leave, InsertVNF, RemoveVNF or MigrateOverloadedVM must leave it exactly
// as it was; a repair must not report an orphan failed that could still
// join the repaired forest; and a replay on a fresh copy of the instance
// must give an equal forest and equal outcomes.
func FuzzDynamicOps(f *testing.F) {
	// A mix of every operation.
	f.Add(int64(1), []byte{0, 3, 2, 1, 4, 0, 6, 2, 5, 1, 3, 0})
	f.Add(int64(42), []byte{6, 0, 6, 1, 4, 2, 5, 3, 2, 4, 3, 5})
	// InsertVNF splices two destinations at one depth, and the first
	// takes the cheaper VM.
	f.Add(int64(1159), []byte{48, 38, 65, 48})
	// InsertVNF appends f3 after a destination VM that runs f2.
	f.Add(int64(1018), []byte{16, 134})
	// MigrateOverloadedVM moves the VNF of a VM that is a destination, of
	// a source VM on its tree's root, and onto the parent's node.
	f.Add(int64(1051), []byte{242, 164})
	f.Add(int64(1857), []byte{193, 74, 25, 198})
	f.Add(int64(1017), []byte{128, 6, 102, 75})
	// Repair fails an orphan whose anchor a later orphan's graft lays.
	f.Add(int64(2002), []byte{210, 104, 69, 128})
	f.Add(int64(1768), []byte{198, 106, 98, 107, 39, 73, 41, 133})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		a := newDynRun(seed)
		if a == nil {
			return
		}
		b := newDynRun(seed)
		for i := 0; i+1 < len(script) && i < 32; i += 2 {
			before := snapshot(a.f)
			out, atomic, opErr := a.step(script[i], script[i+1])
			if err := a.check(); err != nil {
				t.Fatalf("op %d (%s): %v", i/2, out, err)
			}
			if atomic && opErr != nil && !reflect.DeepEqual(snapshot(a.f), before) {
				t.Fatalf("op %d (%s) failed but changed the forest", i/2, out)
			}
			if again, _, _ := b.step(script[i], script[i+1]); again != out {
				t.Fatalf("op %d: %s, on a fresh copy %s", i/2, out, again)
			}
			if !reflect.DeepEqual(snapshot(a.f), snapshot(b.f)) {
				t.Fatalf("op %d (%s): forests differ on a fresh copy", i/2, out)
			}
		}
	})
}
