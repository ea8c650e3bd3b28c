package core

import (
	"context"
	"strings"
	"testing"

	"sof/internal/graph"
)

func TestFlowRulesLine(t *testing.T) {
	g := graph.New(4, 3)
	s := g.AddSwitch("s")
	v1 := g.AddVM("v1", 2)
	v2 := g.AddVM("v2", 3)
	d := g.AddSwitch("d")
	g.MustAddEdge(s, v1, 1)
	g.MustAddEdge(v1, v2, 1)
	g.MustAddEdge(v2, d, 1)
	f, err := SOFDASSCtx(context.Background(), g, s, []graph.NodeID{d}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rules := f.FlowRules()
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	byNode := map[graph.NodeID][]FlowRule{}
	for _, r := range rules {
		byNode[r.Node] = append(byNode[r.Node], r)
	}
	// The source forwards stage 0; each VM applies its VNF; d delivers.
	if len(byNode[s]) != 1 || byNode[s][0].Stage != 0 || len(byNode[s][0].OutEdges) != 1 {
		t.Errorf("source rule wrong: %+v", byNode[s])
	}
	foundApply := 0
	for _, r := range rules {
		if r.ApplyVNF > 0 {
			foundApply++
		}
	}
	if foundApply != 2 {
		t.Errorf("apply rules = %d, want 2", foundApply)
	}
	last := byNode[d]
	if len(last) != 1 || !last[0].Deliver {
		t.Errorf("destination rule wrong: %+v", last)
	}
	if !strings.Contains(last[0].String(), "deliver") {
		t.Error("String() missing deliver")
	}
}

func TestFlowRulesBranching(t *testing.T) {
	g, req := paperStyleNet()
	f, err := SOFDACtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	rules := f.FlowRules()
	deliver := 0
	for _, r := range rules {
		if r.Deliver {
			deliver++
		}
	}
	if deliver != len(req.Dests) {
		t.Errorf("deliver rules = %d, want %d", deliver, len(req.Dests))
	}
	total, maxPer := f.RuleStats()
	if total != len(rules) {
		t.Errorf("RuleStats total %d != %d rules", total, len(rules))
	}
	if maxPer < 1 || maxPer > total {
		t.Errorf("maxPer = %d out of range", maxPer)
	}
}

func TestFlowRulesStagesDistinguishRevisits(t *testing.T) {
	// Star topology forces the walk to revisit the center switch at two
	// different stages; the compiled rules must be distinct per stage.
	g := graph.New(5, 4)
	s := g.AddSwitch("s")
	c := g.AddSwitch("c")
	a := g.AddVM("a", 1)
	b := g.AddVM("b", 1)
	d := g.AddSwitch("d")
	g.MustAddEdge(s, c, 1)
	g.MustAddEdge(c, a, 1)
	g.MustAddEdge(c, b, 1)
	g.MustAddEdge(c, d, 1)
	f, err := SOFDASSCtx(context.Background(), g, s, []graph.NodeID{d}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	stages := map[int]bool{}
	for _, r := range f.FlowRules() {
		if r.Node == c {
			if stages[r.Stage] {
				t.Fatalf("duplicate rule for node %d stage %d", c, r.Stage)
			}
			stages[r.Stage] = true
		}
	}
	if len(stages) < 2 {
		t.Fatalf("expected the center to be programmed at >=2 stages, got %v", stages)
	}
}
