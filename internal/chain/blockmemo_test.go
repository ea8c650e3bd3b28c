package chain

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"sof/internal/graph"
	"sof/internal/kstroll"
)

// sameInstances requires every instance the warm oracle builds for the
// queries (s, u, chainLen), s in sources and u in vms, over the candidate
// set vms, to equal a fresh oracle's bit for bit — every cost as
// math.Float64bits, plus Start, End and K — and every error to match a
// fresh oracle's error text. It returns the number of instances compared.
func sameInstances(t *testing.T, label string, warm *Oracle, vms, sources []graph.NodeID, chainLen int) int {
	t.Helper()
	fresh := NewOracle(warm.g, Options{})
	compared := 0
	for _, s := range sources {
		for _, u := range vms {
			if u == s {
				continue
			}
			got, _, gotErr := warm.instance(newVMSet(vms), s, u, chainLen)
			want, _, wantErr := fresh.instance(newVMSet(vms), s, u, chainLen)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s (%d→%d): error %v, want %v", label, s, u, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if got.N != want.N || got.Start != want.Start || got.End != want.End || got.K != want.K {
				t.Fatalf("%s (%d→%d): instance N=%d Start=%d End=%d K=%d, want %d %d %d %d", label, s, u,
					got.N, got.Start, got.End, got.K, want.N, want.Start, want.End, want.K)
			}
			for i := range want.Cost {
				for j := range want.Cost[i] {
					if math.Float64bits(got.Cost[i][j]) != math.Float64bits(want.Cost[i][j]) {
						t.Fatalf("%s (%d→%d): cost[%d][%d] = %v, want %v", label, s, u, i, j, got.Cost[i][j], want.Cost[i][j])
					}
				}
			}
			compared++
		}
	}
	return compared
}

// warmAll fills o's memos for every (source, VM) pair over vms.
func warmAll(t *testing.T, o *Oracle, vms, sources []graph.NodeID, chainLen int) {
	t.Helper()
	if _, err := o.Chains(context.Background(), vms, Pairs(sources, vms), chainLen, 2); err != nil {
		t.Fatal(err)
	}
}

// TestBlockMemoMatchesFreshOracle checks that the VM–VM block memo is keyed
// by the cost epoch and the exact candidate set: on a warm oracle, after a
// link-cost change, after a VM is masked, for a source that is itself a
// VM, and for two VM sets in one epoch (one of them behind a fabricated
// hash collision), every instance equals a fresh oracle's.
func TestBlockMemoMatchesFreshOracle(t *testing.T) {
	const chainLen = 3
	g, vms, sources := cacheTestInstance(11)
	o := NewOracle(g, Options{})
	warmAll(t, o, vms, sources, chainLen)
	if n := sameInstances(t, "initial", o, vms, sources, chainLen); n == 0 {
		t.Fatal("no feasible instance to compare")
	}

	t.Run("SetEdgeCost", func(t *testing.T) {
		// Halving a link on the path vms[0]⇝vms[1] shortens that pair's
		// distance, so a block kept from the last epoch would be wrong.
		sp := o.Tree(vms[0])
		e := sp.ParentEdge[vms[1]]
		before := sp.Dist[vms[1]]
		g.SetEdgeCost(e, g.EdgeCost(e)/2)
		if after := o.Tree(vms[0]).Dist[vms[1]]; after >= before {
			t.Fatalf("test setup: d(vms[0], vms[1]) %v did not fall below %v", after, before)
		}
		sameInstances(t, "after SetEdgeCost", o, vms, sources, chainLen)
		warmAll(t, o, vms, sources, chainLen)
		sameInstances(t, "after SetEdgeCost, rewarmed", o, vms, sources, chainLen)
	})

	t.Run("MaskedVM", func(t *testing.T) {
		v := vms[len(vms)/2]
		if !g.MaskNode(v) {
			t.Fatal("test setup: mask did not apply")
		}
		sameInstances(t, "masked", o, vms, sources, chainLen)
		warmAll(t, o, vms, sources, chainLen)
		sameInstances(t, "masked, rewarmed", o, vms, sources, chainLen)
		g.UnmaskNode(v)
		sameInstances(t, "unmasked", o, vms, sources, chainLen)
	})

	t.Run("VMSource", func(t *testing.T) {
		vmSources := []graph.NodeID{vms[0], vms[len(vms)-1]}
		warmAll(t, o, vms, vmSources, chainLen)
		sameInstances(t, "VM sources", o, vms, append(vmSources, sources...), chainLen)
	})

	t.Run("TwoSetsOneEpoch", func(t *testing.T) {
		a, b := vms[:len(vms)-1], vms[1:]
		warmAll(t, o, a, sources, chainLen)
		warmAll(t, o, b, sources, chainLen)
		sameInstances(t, "set a", o, a, sources, chainLen)
		sameInstances(t, "set b", o, b, sources, chainLen)

		// Fabricate a hash collision: b's block filed under a's hash. The
		// exact set check must refuse it.
		setB := newVMSet(b)
		blk, err := o.block(setB)
		if err != nil {
			t.Fatal(err)
		}
		planted := &memoEntry[[]float64]{set: setB.ids}
		planted.once.Do(func() { planted.v = blk })
		o.blocks.mu.Lock()
		if o.blocks.epoch != g.CostEpoch() {
			o.blocks.mu.Unlock()
			t.Fatal("test setup: block memo is not at the current epoch")
		}
		o.blocks.m[hashNodes(a)] = planted
		o.blocks.mu.Unlock()
		sameInstances(t, "set a beside a colliding entry", o, a, sources, chainLen)
	})

	t.Run("IsolatedVM", func(t *testing.T) {
		// Failing every link of one VM makes it unreachable: each instance
		// fails, cold as warm, with the same error.
		v := vms[1]
		for _, a := range g.Adj(v) {
			g.FailEdge(a.Edge)
		}
		sameInstances(t, "isolated VM", o, vms, sources, chainLen)
		g.RestoreAll()
		sameInstances(t, "restored", o, vms, sources, chainLen)
	})
}

// TestBlockMemoBounded overflows a shrunken cap: the memo stays bounded
// and keeps answering what a fresh oracle answers.
func TestBlockMemoBounded(t *testing.T) {
	old := maxBlocks
	maxBlocks = 2
	defer func() { maxBlocks = old }()

	g, vms, sources := cacheTestInstance(13)
	o := NewOracle(g, Options{})
	for round := 0; round < 2; round++ {
		for k := 0; k < 4; k++ {
			set := vms[k : len(vms)-3+k]
			sameInstances(t, fmt.Sprintf("round %d set %d", round, k), o, set, sources[:1], 2)
			o.blocks.mu.Lock()
			n := len(o.blocks.m)
			o.blocks.mu.Unlock()
			if n > maxBlocks {
				t.Fatalf("block memo grew to %d entries, cap is %d", n, maxBlocks)
			}
		}
	}
}

// TestChainsReturnsMemoChains checks that Chains hands out the memo's own
// chains: two batches in one epoch return the same pointers, a cost change
// replaces them, and the public Chain still returns a private copy.
func TestChainsReturnsMemoChains(t *testing.T) {
	g, vms, sources := cacheTestInstance(3)
	o := NewOracle(g, Options{})
	pairs := Pairs(sources, vms)
	first, err := o.Chains(context.Background(), vms, pairs, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := o.Chains(context.Background(), vms, pairs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	feasible := 0
	for i := range first {
		if first[i].Chain != second[i].Chain {
			t.Fatalf("pair %v: two batches in one epoch returned different chains", pairs[i])
		}
		if (first[i].Err == nil) != (second[i].Err == nil) {
			t.Fatalf("pair %v: errors %v and %v", pairs[i], first[i].Err, second[i].Err)
		}
		if first[i].Chain == nil {
			continue
		}
		feasible++
		own, err := o.Chain(vms, pairs[i].Source, pairs[i].LastVM, 3)
		if err != nil {
			t.Fatal(err)
		}
		if own == first[i].Chain || !reflect.DeepEqual(own, first[i].Chain) {
			t.Fatalf("pair %v: Chain must return a private copy of the memo's chain", pairs[i])
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible pair")
	}

	g.SetEdgeCost(0, g.EdgeCost(0)+1)
	third, err := o.Chains(context.Background(), vms, pairs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range third {
		if third[i].Chain != nil && third[i].Chain == first[i].Chain {
			t.Fatalf("pair %v: a chain outlived its cost epoch", pairs[i])
		}
	}
}

// TestUnavailableLastVMError pins the masked-last-VM error: its text, and
// that it wraps kstroll.ErrInfeasible.
func TestUnavailableLastVMError(t *testing.T) {
	g, s, vms, _ := lineNet()
	o := NewOracle(g, Options{})
	g.MaskNode(vms[2])
	_, err := o.Chain(vms, s, vms[2], 2)
	want := fmt.Errorf("chain: last VM %d is unavailable: %w", vms[2], kstroll.ErrInfeasible)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("error %v, want %v", err, want)
	}
	if !errors.Is(err, kstroll.ErrInfeasible) {
		t.Fatalf("error %v does not wrap kstroll.ErrInfeasible", err)
	}
}

// TestBlockMemoSingleflight asks for one candidate set's block from many
// goroutines: it is built once, and every caller gets that block.
func TestBlockMemoSingleflight(t *testing.T) {
	g, vms, _ := cacheTestInstance(5)
	o := NewOracle(g, Options{})
	set := newVMSet(vms)
	blocks := make([][]float64, 16)
	var wg sync.WaitGroup
	for w := range blocks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			blk, err := o.block(set)
			if err != nil {
				t.Error(err)
				return
			}
			blocks[w] = blk
		}(w)
	}
	wg.Wait()
	for w, blk := range blocks {
		if len(blk) != len(vms)*len(vms) || &blk[0] != &blocks[0][0] {
			t.Fatalf("goroutine %d got a block of its own", w)
		}
	}
	if n := len(o.blocks.m); n != 1 {
		t.Fatalf("block memo holds %d entries, want 1", n)
	}
}
