package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
)

// dynNet builds a richly connected network for dynamic-operation tests.
func dynNet(t *testing.T, seed int64) (*graph.Graph, []graph.NodeID, []graph.NodeID) {
	t.Helper()
	g := graph.RandomConnected(graph.RandomConfig{
		Nodes: 24, ExtraEdges: 36, VMFraction: 0.45, MaxEdge: 8, MaxSetup: 5,
	}, seed)
	return g, g.VMs(), g.Switches()
}

func buildDynForest(t *testing.T, seed int64) (*Forest, *chain.Oracle, []graph.NodeID, Request) {
	t.Helper()
	g, vms, sws := dynNet(t, seed)
	if len(vms) < 6 || len(sws) < 6 {
		t.Skip("unsuitable random instance")
	}
	rng := rand.New(rand.NewSource(seed))
	req := Request{
		Sources:  graph.SampleDistinct(rng, sws, 2),
		Dests:    graph.SampleDistinct(rng, sws[2:], 3),
		ChainLen: 2,
	}
	f, err := SOFDACtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatalf("SOFDA: %v", err)
	}
	return f, chain.NewOracle(g, chain.Options{}), vms, req
}

func TestLeaveReducesCostAndKeepsOthers(t *testing.T) {
	f, _, _, req := buildDynForest(t, 3)
	leaving := req.Dests[0]
	delta, err := f.Leave(leaving)
	if err != nil {
		t.Fatal(err)
	}
	if delta > 1e-9 {
		t.Errorf("leave increased cost by %v", delta)
	}
	if err := f.Validate(req.Sources, req.Dests[1:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Leave(leaving); err == nil {
		t.Error("double leave accepted")
	}
}

func TestJoinServesNewDestination(t *testing.T) {
	f, oracle, vms, req := buildDynForest(t, 5)
	// Find a switch that is not yet a destination.
	var newDest graph.NodeID = graph.None
	for _, s := range f.Graph().Switches() {
		inReq := false
		for _, d := range req.Dests {
			if d == s {
				inReq = true
			}
		}
		for _, src := range req.Sources {
			if src == s {
				inReq = true
			}
		}
		if !inReq {
			newDest = s
			break
		}
	}
	if newDest == graph.None {
		t.Skip("no spare switch")
	}
	delta, err := f.Join(oracle, vms, newDest)
	if err != nil {
		t.Fatal(err)
	}
	if delta < 0 {
		t.Errorf("join decreased cost by %v", -delta)
	}
	if err := f.Validate(req.Sources, append(req.Dests, newDest)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Join(oracle, vms, newDest); err == nil {
		t.Error("double join accepted")
	}
}

func TestJoinThenLeaveRoundTrip(t *testing.T) {
	f, oracle, vms, req := buildDynForest(t, 7)
	var newDest graph.NodeID = graph.None
	for _, s := range f.Graph().Switches() {
		if _, served := f.DestClone(s); !served && s != req.Sources[0] && s != req.Sources[1] {
			newDest = s
			break
		}
	}
	if newDest == graph.None {
		t.Skip("no spare switch")
	}
	before := f.TotalCost()
	if _, err := f.Join(oracle, vms, newDest); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Leave(newDest); err != nil {
		t.Fatal(err)
	}
	if f.TotalCost() > before+1e-6 {
		t.Errorf("join+leave left residual cost: %v -> %v", before, f.TotalCost())
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveVNFShortensChain(t *testing.T) {
	f, _, _, req := buildDynForest(t, 9)
	if err := f.RemoveVNF(1); err != nil {
		t.Fatal(err)
	}
	if f.ChainLen() != 1 {
		t.Fatalf("chain length = %d, want 1", f.ChainLen())
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveVNF(5); err == nil {
		t.Error("out-of-range removal accepted")
	}
}

func TestInsertVNFExtendsChain(t *testing.T) {
	f, oracle, vms, req := buildDynForest(t, 11)
	before := f.ChainLen()
	if err := f.InsertVNF(oracle, vms, 1); err != nil {
		t.Fatalf("insert at head: %v", err)
	}
	if f.ChainLen() != before+1 {
		t.Fatalf("chain length = %d, want %d", f.ChainLen(), before+1)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	// Append at the tail too.
	if err := f.InsertVNF(oracle, vms, f.ChainLen()+1); err != nil {
		t.Fatalf("insert at tail: %v", err)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	if err := f.InsertVNF(oracle, vms, 99); err == nil {
		t.Error("out-of-range insert accepted")
	}
}

func TestRerouteCongestedEdge(t *testing.T) {
	f, oracle, _, req := buildDynForest(t, 13)
	// Find an edge used by the forest.
	var used graph.EdgeID = graph.NoEdge
	for id := range f.clones {
		c := f.clones[id]
		if !c.deleted && c.Parent != NoClone && c.ParentEdge != graph.NoEdge {
			used = c.ParentEdge
			break
		}
	}
	if used == graph.NoEdge {
		t.Skip("forest uses no edges")
	}
	// Congest it: huge cost, then reroute.
	f.Graph().SetEdgeCost(used, 1e6)
	oracle.InvalidateCache()
	n, err := f.RerouteCongestedEdge(oracle, used)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing rerouted")
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	// The congested edge is no longer used by any clone.
	for id := range f.clones {
		c := f.clones[id]
		if !c.deleted && c.ParentEdge == used {
			t.Fatal("congested edge still in use")
		}
	}
}

// TestRerouteCongestedEdgeRejectsForeignEdge: an edge outside the network
// is an error, and the forest stays as it was. NoEdge is every root
// clone's parent edge, so a sweep for it would reach past the roots.
func TestRerouteCongestedEdgeRejectsForeignEdge(t *testing.T) {
	f, oracle, _, _ := buildDynForest(t, 13)
	for _, e := range []graph.EdgeID{graph.NoEdge, graph.EdgeID(f.Graph().NumEdges())} {
		before := snapshot(f)
		if n, err := f.RerouteCongestedEdge(oracle, e); err == nil {
			t.Errorf("edge %d: rerouted %d clones, want an error", e, n)
		}
		if after := snapshot(f); !reflect.DeepEqual(after, before) {
			t.Errorf("edge %d: the forest changed", e)
		}
	}
}

func TestMigrateOverloadedVM(t *testing.T) {
	f, oracle, vms, req := buildDynForest(t, 15)
	usedVMs := f.UsedVMs()
	if len(usedVMs) == 0 {
		t.Skip("no VMs in forest")
	}
	victim := usedVMs[0]
	if err := f.MigrateOverloadedVM(oracle, vms, victim); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	if f.VNFOf(victim) != 0 {
		t.Error("victim VM still enabled")
	}
	if err := f.MigrateOverloadedVM(oracle, vms, victim); err == nil {
		t.Error("migrating an unused VM accepted")
	}
}

func TestDynamicSequence(t *testing.T) {
	// A stress sequence mixing all operations; the forest must stay valid
	// throughout.
	f, oracle, vms, req := buildDynForest(t, 21)
	dests := append([]graph.NodeID(nil), req.Dests...)
	for _, s := range f.Graph().Switches() {
		if _, ok := f.DestClone(s); ok {
			continue
		}
		skip := false
		for _, src := range req.Sources {
			if src == s {
				skip = true
			}
		}
		if skip {
			continue
		}
		if _, err := f.Join(oracle, vms, s); err == nil {
			dests = append(dests, s)
		}
		if len(dests) >= 6 {
			break
		}
	}
	if err := f.Validate(req.Sources, dests); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Leave(dests[0]); err != nil {
		t.Fatal(err)
	}
	dests = dests[1:]
	if err := f.InsertVNF(oracle, vms, 2); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := f.Validate(req.Sources, dests); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveVNF(2); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(req.Sources, dests); err != nil {
		t.Fatal(err)
	}
}

// TestInsertVNFFailureRollsBack: an insert that fails leaves the forest
// exactly as it was — same state, same cost bits, still valid — and a
// later Join behaves as on a forest the insert never touched. Three
// failures: no free VM for the new VNF, no splice walk through the free
// VM, and no free VM for the second of two boundaries, after the first
// was already spliced.
func TestInsertVNFFailureRollsBack(t *testing.T) {
	type insertCase struct {
		name    string
		g       *graph.Graph
		forest  func() *Forest // a fresh copy of the forest under test
		spare   graph.NodeID   // a destination for the follow-up Join
		wantErr string
	}
	// serve hangs parent → VM v (running f1) → destination d off parent.
	serve := func(f *Forest, parent CloneID, v graph.NodeID, pv graph.EdgeID, d graph.NodeID, vd graph.EdgeID) {
		cv := f.AppendClone(parent, v, pv)
		if err := f.Enable(cv, 1); err != nil {
			t.Fatal(err)
		}
		f.MarkDestination(d, f.AppendClone(cv, d, vd))
	}
	// line is s→v→d plus a spare destination x behind d; isolated adds a
	// free VM w with no links at all.
	line := func(isolated bool) insertCase {
		g := graph.New(5, 3)
		s, v, d, x := g.AddSwitch("s"), g.AddVM("v", 1), g.AddSwitch("d"), g.AddSwitch("x")
		sv, vd := g.MustAddEdge(s, v, 1), g.MustAddEdge(v, d, 1)
		g.MustAddEdge(d, x, 1)
		tc := insertCase{name: "no free VM", g: g, spare: x, wantErr: "no free VM for inserted VNF f1"}
		if isolated {
			g.AddVM("w", 1)
			tc.name, tc.wantErr = "no splice walk", "cannot splice VNF f1"
		}
		tc.forest = func() *Forest {
			f := NewForest(g, 1)
			serve(f, f.NewRoot(s), v, sv, d, vd)
			return f
		}
		return tc
	}
	// branched is s→v1→d1 and s→v2→d2 with one free VM w linked to s, v1
	// and v2: whichever boundary is spliced first takes w, and the other
	// finds no VM left.
	branched := func() insertCase {
		g := graph.New(7, 8)
		s, v1, v2 := g.AddSwitch("s"), g.AddVM("v1", 1), g.AddVM("v2", 1)
		d1, d2, w, x := g.AddSwitch("d1"), g.AddSwitch("d2"), g.AddVM("w", 1), g.AddSwitch("x")
		sv1, v1d1 := g.MustAddEdge(s, v1, 1), g.MustAddEdge(v1, d1, 1)
		sv2, v2d2 := g.MustAddEdge(s, v2, 1), g.MustAddEdge(v2, d2, 1)
		g.MustAddEdge(s, w, 1)
		g.MustAddEdge(w, v1, 1)
		g.MustAddEdge(w, v2, 1)
		g.MustAddEdge(d1, x, 1)
		return insertCase{name: "second boundary", g: g, spare: x, wantErr: "no free VM for inserted VNF f1",
			forest: func() *Forest {
				f := NewForest(g, 1)
				root := f.NewRoot(s)
				serve(f, root, v1, sv1, d1, v1d1)
				serve(f, root, v2, sv2, d2, v2d2)
				return f
			}}
	}
	for _, tc := range []insertCase{line(false), line(true), branched()} {
		t.Run(tc.name, func(t *testing.T) {
			oracle := chain.NewOracle(tc.g, chain.Options{})
			f, ref := tc.forest(), tc.forest()
			sources := []graph.NodeID{0}
			if err := ref.Validate(sources, ref.Destinations()); err != nil {
				t.Fatalf("fixture invalid: %v", err)
			}
			err := f.InsertVNF(oracle, tc.g.VMs(), 1)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("InsertVNF error = %v, want one containing %q", err, tc.wantErr)
			}
			if math.Float64bits(f.TotalCost()) != math.Float64bits(ref.TotalCost()) {
				t.Errorf("TotalCost %v, untouched forest %v", f.TotalCost(), ref.TotalCost())
			}
			if !slices.Equal(f.UsedVMs(), ref.UsedVMs()) {
				t.Errorf("UsedVMs %v, untouched forest %v", f.UsedVMs(), ref.UsedVMs())
			}
			if f.ChainLen() != ref.ChainLen() {
				t.Errorf("ChainLen %d, untouched forest %d", f.ChainLen(), ref.ChainLen())
			}
			if err := f.Validate(sources, f.Destinations()); err != nil {
				t.Errorf("forest invalid after a failed insert: %v", err)
			}
			if !reflect.DeepEqual(f, ref) {
				t.Errorf("forest state differs from the untouched forest")
			}
			got, gotErr := f.Join(oracle, tc.g.VMs(), tc.spare)
			want, wantErr := ref.Join(oracle, tc.g.VMs(), tc.spare)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("later Join: %v, on the untouched forest: %v", gotErr, wantErr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("later Join costs %v, on the untouched forest %v", got, want)
			}
			if !reflect.DeepEqual(f, ref) {
				t.Errorf("forest state after the later Join differs from the untouched forest's")
			}
		})
	}
}

// TestInsertVNFTiedBoundariesDeterministic: appending f1 to a chainless
// forest splices both destinations, which sit at one depth, and the first
// splice takes the one cheap VM. The clone id must break the tie, so every
// insert on a fresh copy gives the same forest: d1, the lower clone, gets
// w1.
func TestInsertVNFTiedBoundariesDeterministic(t *testing.T) {
	g := graph.New(5, 8)
	s, d1, d2 := g.AddSwitch("s"), g.AddSwitch("d1"), g.AddSwitch("d2")
	w1, w2 := g.AddVM("w1", 1), g.AddVM("w2", 1)
	sd1, sd2 := g.MustAddEdge(s, d1, 1), g.MustAddEdge(s, d2, 1)
	g.MustAddEdge(s, w1, 1)
	g.MustAddEdge(w1, d1, 1)
	g.MustAddEdge(w1, d2, 1)
	g.MustAddEdge(s, w2, 5)
	g.MustAddEdge(w2, d1, 5)
	g.MustAddEdge(w2, d2, 5)
	oracle := chain.NewOracle(g, chain.Options{})
	insert := func() *Forest {
		f := NewForest(g, 0)
		root := f.NewRoot(s)
		f.MarkDestination(d1, f.AppendClone(root, d1, sd1))
		f.MarkDestination(d2, f.AppendClone(root, d2, sd2))
		if err := f.InsertVNF(oracle, g.VMs(), 1); err != nil {
			t.Fatal(err)
		}
		if err := f.Validate([]graph.NodeID{s}, []graph.NodeID{d1, d2}); err != nil {
			t.Fatal(err)
		}
		return f
	}
	first := insert()
	c, _ := first.DestClone(d1)
	if !slices.ContainsFunc(first.PathToRoot(c), func(id CloneID) bool { return first.Clone(id).Node == w1 }) {
		t.Errorf("d1 is not served through w1")
	}
	for i := 0; i < 50; i++ {
		if f := insert(); !reflect.DeepEqual(f, first) {
			t.Fatalf("insert %d gave a different forest", i+1)
		}
	}
}

// TestInsertVNFInPlaceOnDestinationVM: on s–v1(f1)–d, where the
// destination d is a free VM, appending f2 runs it on d in place (setup 1,
// total 4); the walk v1–w–d through the other free VM would total 9.
func TestInsertVNFInPlaceOnDestinationVM(t *testing.T) {
	g := graph.New(4, 4)
	s, v1, d, w := g.AddSwitch("s"), g.AddVM("v1", 1), g.AddVM("d", 1), g.AddVM("w", 1)
	sv1, v1d := g.MustAddEdge(s, v1, 1), g.MustAddEdge(v1, d, 1)
	g.MustAddEdge(v1, w, 3)
	g.MustAddEdge(w, d, 3)
	f := NewForest(g, 1)
	c1 := f.AppendClone(f.NewRoot(s), v1, sv1)
	if err := f.Enable(c1, 1); err != nil {
		t.Fatal(err)
	}
	f.MarkDestination(d, f.AppendClone(c1, d, v1d))
	if err := f.InsertVNF(chain.NewOracle(g, chain.Options{}), g.VMs(), 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate([]graph.NodeID{s}, []graph.NodeID{d}); err != nil {
		t.Fatal(err)
	}
	if f.VNFOf(d) != 2 || f.TotalCost() != 4 {
		t.Fatalf("d runs f%d, cost %v; want f2 and 4", f.VNFOf(d), f.TotalCost())
	}
}

// TestInsertVNFAtEndOfChainOnDestinationVM: on the path s–v1–d–v3, where
// the VM d is the destination and hosts f2, appending f3 must serve d
// through v3. The boundary sits at d's own serving clone, so no splice
// above it can add the missing VNF.
func TestInsertVNFAtEndOfChainOnDestinationVM(t *testing.T) {
	g := graph.New(4, 3)
	s, v1, d, v3 := g.AddSwitch("s"), g.AddVM("v1", 1), g.AddVM("d", 1), g.AddVM("v3", 1)
	g.MustAddEdge(s, v1, 1)
	g.MustAddEdge(v1, d, 1)
	g.MustAddEdge(d, v3, 1)
	sources, dests := []graph.NodeID{s}, []graph.NodeID{d}
	embeds := map[string]func() (*Forest, error){
		"SOFDA": func() (*Forest, error) {
			return SOFDACtx(context.Background(), g, Request{Sources: sources, Dests: dests, ChainLen: 2}, nil)
		},
		"SOFDA-SS": func() (*Forest, error) { return SOFDASSCtx(context.Background(), g, s, dests, 2, nil) },
	}
	for name, embed := range embeds {
		t.Run(name, func(t *testing.T) {
			f, err := embed()
			if err != nil {
				t.Fatal(err)
			}
			if f.VNFOf(d) != 2 {
				t.Fatalf("fixture: d runs f%d, want f2", f.VNFOf(d))
			}
			if err := f.InsertVNF(chain.NewOracle(g, chain.Options{}), g.VMs(), 3); err != nil {
				t.Fatal(err)
			}
			if err := f.Validate(sources, dests); err != nil {
				t.Fatal(err)
			}
			if f.VNFOf(v3) != 3 {
				t.Errorf("v3 runs f%d, want f3", f.VNFOf(v3))
			}
		})
	}
}

// TestMigrateOverloadedVMKeepsForestFeasible: a migration must leave a
// forest that validates. Three shapes broke it: the migrated VM is itself
// the destination; the VNF runs on a tree's root, a source VM; and the
// replacement VM is the node of the old clone's parent, a clone another
// branch shares.
func TestMigrateOverloadedVMKeepsForestFeasible(t *testing.T) {
	type migrateCase struct {
		name            string
		g               *graph.Graph
		f               *Forest
		sources, dests  []graph.NodeID
		victim, replace graph.NodeID
	}
	embed := func(g *graph.Graph, s graph.NodeID, dests []graph.NodeID) *Forest {
		f, err := SOFDASSCtx(context.Background(), g, s, dests, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// s–v–w: the VM v is the destination and runs f1.
	destOnVictim := func() migrateCase {
		g := graph.New(3, 2)
		s, v, w := g.AddSwitch("s"), g.AddVM("v", 1), g.AddVM("w", 1)
		g.MustAddEdge(s, v, 1)
		g.MustAddEdge(v, w, 1)
		dests := []graph.NodeID{v}
		return migrateCase{"destination on the migrated VM", g, embed(g, s, dests), []graph.NodeID{s}, dests, v, w}
	}
	// The source VM s runs f1 on the root clone; d hangs below it.
	rootVNF := func() migrateCase {
		g := graph.New(3, 3)
		s, w, d := g.AddVM("s", 1), g.AddVM("w", 1), g.AddSwitch("d")
		sd := g.MustAddEdge(s, d, 1)
		g.MustAddEdge(s, w, 1)
		g.MustAddEdge(w, d, 1)
		f := NewForest(g, 1)
		root := f.NewRoot(s)
		if err := f.Enable(root, 1); err != nil {
			t.Fatal(err)
		}
		f.MarkDestination(d, f.AppendClone(root, d, sd))
		return migrateCase{"VNF on a root clone", g, f, []graph.NodeID{s}, []graph.NodeID{d}, s, w}
	}
	// s–a–v1–d1 and a–v2–d2: d2 joins through a's clone, then a turns
	// cheap, so v1's VNF moves onto the clone of a both branches share.
	parentNode := func() migrateCase {
		g := graph.New(6, 5)
		s, a, v1, d1 := g.AddSwitch("s"), g.AddVM("a", 10), g.AddVM("v1", 1), g.AddSwitch("d1")
		v2, d2 := g.AddVM("v2", 1), g.AddSwitch("d2")
		g.MustAddEdge(s, a, 1)
		g.MustAddEdge(a, v1, 1)
		g.MustAddEdge(v1, d1, 1)
		g.MustAddEdge(a, v2, 1)
		g.MustAddEdge(v2, d2, 1)
		f := embed(g, s, []graph.NodeID{d1})
		if _, err := f.Join(chain.NewOracle(g, chain.Options{}), g.VMs(), d2); err != nil {
			t.Fatal(err)
		}
		g.SetNodeCost(a, 0.1)
		return migrateCase{"replacement is the parent's node", g, f, []graph.NodeID{s}, []graph.NodeID{d1, d2}, v1, a}
	}
	for _, tc := range []migrateCase{destOnVictim(), rootVNF(), parentNode()} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.f.Validate(tc.sources, tc.dests); err != nil {
				t.Fatalf("fixture invalid: %v", err)
			}
			if err := tc.f.MigrateOverloadedVM(chain.NewOracle(tc.g, chain.Options{}), tc.g.VMs(), tc.victim); err != nil {
				t.Fatal(err)
			}
			if err := tc.f.Validate(tc.sources, tc.dests); err != nil {
				t.Fatal(err)
			}
			if tc.f.VNFOf(tc.victim) != 0 || tc.f.VNFOf(tc.replace) != 1 {
				t.Errorf("VMs in use %v, want f1 moved from %d to %d", tc.f.UsedVMs(), tc.victim, tc.replace)
			}
		})
	}
}
