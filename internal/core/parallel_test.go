package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"sof/internal/topology"
)

// TestSOFDAParallelismInvariance checks the concurrent candidate pipeline
// is a pure execution change: any worker-pool width yields the identical
// forest cost, because candidates are deterministic and re-ordered into
// the sequential iteration order before the Steiner phase.
func TestSOFDAParallelismInvariance(t *testing.T) {
	for _, seed := range []int64{2, 17, 31} {
		net := topology.SoftLayer(topology.Config{NumVMs: 20, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		req := Request{
			Sources:  net.RandomNodes(rng, 5),
			Dests:    net.RandomNodes(rng, 4),
			ChainLen: 2,
		}
		var want float64
		for i, par := range []int{1, 2, runtime.NumCPU()} {
			f, err := SOFDACtx(context.Background(), net.G, req, &Options{VMs: net.VMs, Parallelism: par})
			if err != nil {
				t.Fatalf("seed %d par %d: %v", seed, par, err)
			}
			if i == 0 {
				want = f.TotalCost()
				continue
			}
			if f.TotalCost() != want {
				t.Errorf("seed %d par %d: cost %v, want %v", seed, par, f.TotalCost(), want)
			}
		}
	}
}

func TestSOFDASSParallelismInvariance(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 15, Seed: 8})
	rng := rand.New(rand.NewSource(8))
	src := net.RandomNodes(rng, 1)[0]
	dests := net.RandomNodes(rng, 4)
	var want float64
	for i, par := range []int{1, runtime.NumCPU()} {
		f, err := SOFDASSCtx(context.Background(), net.G, src, dests, 2, &Options{VMs: net.VMs, Parallelism: par})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if i == 0 {
			want = f.TotalCost()
			continue
		}
		if f.TotalCost() != want {
			t.Errorf("par %d: cost %v, want %v", par, f.TotalCost(), want)
		}
	}
}

func TestSOFDACtxCancellation(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 15, Seed: 4})
	rng := rand.New(rand.NewSource(4))
	req := Request{
		Sources:  net.RandomNodes(rng, 4),
		Dests:    net.RandomNodes(rng, 3),
		ChainLen: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SOFDACtx(ctx, net.G, req, &Options{VMs: net.VMs}); err == nil {
		t.Error("SOFDACtx with cancelled context returned nil error")
	}
	if _, err := SOFDASSCtx(ctx, net.G, req.Sources[0], req.Dests, 2, &Options{VMs: net.VMs}); err == nil {
		t.Error("SOFDASSCtx with cancelled context returned nil error")
	}
	// A nil ctx is normalized to Background, not dereferenced.
	if _, err := SOFDACtx(nil, net.G, req, &Options{VMs: net.VMs}); err != nil { //nolint:staticcheck
		t.Errorf("SOFDACtx with nil context: %v", err)
	}
}
