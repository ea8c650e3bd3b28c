package sof_test

import (
	"context"
	"fmt"

	"sof"
)

// ExampleSolver_Embed embeds a two-VNF chain on a line network with the
// paper's main algorithm.
func ExampleSolver_Embed() {
	b := sof.NewNetworkBuilder()
	src := b.AddSwitch("src")
	transcoder := b.AddVM("transcoder", 2)
	watermark := b.AddVM("watermark", 3)
	dst := b.AddSwitch("dst")
	b.Link(src, transcoder, 1)
	b.Link(transcoder, watermark, 1)
	b.Link(watermark, dst, 1)
	net, err := b.Build()
	if err != nil {
		panic(err)
	}
	forest, err := sof.NewSolver(net).Embed(context.Background(), sof.Request{
		Sources:      []sof.NodeID{src},
		Destinations: []sof.NodeID{dst},
		ChainLength:  2,
	})
	if err != nil {
		panic(err)
	}
	setup, conn := forest.Cost()
	fmt.Printf("total=%.0f setup=%.0f connection=%.0f trees=%d\n",
		forest.TotalCost(), setup, conn, forest.Trees())
	// Output: total=8 setup=5 connection=3 trees=1
}

// ExampleForest_Leave shows dynamic membership: a destination leaves and
// its exclusive branch is reclaimed.
func ExampleForest_Leave() {
	b := sof.NewNetworkBuilder()
	src := b.AddSwitch("src")
	vm := b.AddVM("vnf", 1)
	hub := b.AddSwitch("hub")
	d1 := b.AddSwitch("d1")
	d2 := b.AddSwitch("d2")
	b.Link(src, vm, 1)
	b.Link(vm, hub, 1)
	b.Link(hub, d1, 1)
	b.Link(hub, d2, 5)
	net, err := b.Build()
	if err != nil {
		panic(err)
	}
	forest, err := sof.NewSolver(net).Embed(context.Background(), sof.Request{
		Sources:      []sof.NodeID{src},
		Destinations: []sof.NodeID{d1, d2},
		ChainLength:  1,
	})
	if err != nil {
		panic(err)
	}
	before := forest.TotalCost()
	delta, err := forest.Leave(d2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("before=%.0f delta=%.0f after=%.0f\n", before, delta, forest.TotalCost())
	// Output: before=9 delta=-5 after=4
}
