// Package emu is a flow-level emulation of the paper's hardware experiment
// (Section VIII-D, Table II): a 14-node/20-link SDN (Figure 13) carries a
// 137-second 8 Mbps H.264 stream from two YouTube-fed sources to four
// destinations through a transcoder and a watermarker VNF. Links have
// 4.5–9 Mbps of available bandwidth to emulate congestion; startup latency
// and total re-buffering time are measured per destination.
//
// The hardware testbed (HP OpenFlow switches + OpenStack VMs) and the
// Emulab deployment are replaced by two emulator profiles with slightly
// different delay/bandwidth characteristics; what Table II actually
// compares — which algorithm's embedding finds less congested paths — is
// exactly what the flow-level model computes.
package emu

import (
	"context"
	"fmt"
	"math/rand"

	"sof"
	"sof/internal/costmodel"
	"sof/internal/graph"
	"sof/internal/topology"
)

// Profile fixes the physical characteristics of one deployment.
type Profile struct {
	Name string
	// VideoBitrateMbps and DurationSec describe the source stream;
	// TranscodedRateMbps is the rate after the transcoder VNF adapts the
	// stream for congested delivery (the role the paper's FFmpeg
	// transcoder plays).
	VideoBitrateMbps   float64
	TranscodedRateMbps float64
	DurationSec        float64
	// LinkCapacityMbps is raw capacity; available bandwidth per link is
	// drawn uniformly from [BWLowMbps, BWHighMbps].
	LinkCapacityMbps float64
	BWLowMbps        float64
	BWHighMbps       float64
	// StartupBufferSec of content must arrive before playback starts.
	StartupBufferSec float64
	// PerVNFDelaySec and PerHopDelaySec add fixed pipeline latency.
	PerVNFDelaySec float64
	PerHopDelaySec float64
	Seed           int64
}

// Testbed mirrors the HP-switch testbed column of Table II.
func Testbed(seed int64) Profile {
	return Profile{
		Name:             "testbed",
		VideoBitrateMbps: 8, TranscodedRateMbps: 6, DurationSec: 137,
		LinkCapacityMbps: 50, BWLowMbps: 4.5, BWHighMbps: 9,
		StartupBufferSec: 4, PerVNFDelaySec: 1.2, PerHopDelaySec: 0.15,
		Seed: seed,
	}
}

// Emulab mirrors the Emulab column: same workload, faster control plane
// and slightly more headroom.
func Emulab(seed int64) Profile {
	return Profile{
		Name:             "emulab",
		VideoBitrateMbps: 8, TranscodedRateMbps: 6, DurationSec: 137,
		LinkCapacityMbps: 50, BWLowMbps: 5.5, BWHighMbps: 10,
		StartupBufferSec: 4, PerVNFDelaySec: 0.8, PerHopDelaySec: 0.05,
		Seed: seed,
	}
}

// DestQoE is the measured playback quality for one destination.
type DestQoE struct {
	Dest           graph.NodeID
	ThroughputMbps float64
	StartupSec     float64
	RebufferSec    float64
}

// QoE aggregates a run.
type QoE struct {
	Algorithm sof.Algorithm
	Profile   string
	PerDest   []DestQoE
	// AvgStartupSec and AvgRebufferSec are the Table II quantities.
	AvgStartupSec  float64
	AvgRebufferSec float64
	ForestCost     float64
}

// Evaluate embeds the video service with the given algorithm on the
// Figure-13 testbed and plays the stream through the resulting forest.
// The chain is (transcoder, watermarker), |C| = 2.
func Evaluate(algo sof.Algorithm, p Profile) (*QoE, error) {
	net := topology.Testbed(topology.Config{Seed: p.Seed})
	rng := rand.New(rand.NewSource(p.Seed))

	// Background congestion: draw available bandwidth per backbone link
	// and price links by their utilization so embeddings can avoid
	// congestion.
	avail := make([]float64, net.G.NumEdges())
	for e := 0; e < net.G.NumEdges(); e++ {
		bw := p.BWLowMbps + rng.Float64()*(p.BWHighMbps-p.BWLowMbps)
		avail[e] = bw
		load := p.LinkCapacityMbps - bw
		net.G.SetEdgeCost(graph.EdgeID(e), costmodel.Cost(load, p.LinkCapacityMbps))
	}
	// Two random video sources, four random destinations (Section VIII-D).
	picks := graph.SampleDistinct(rng, net.Access, 6)
	req := sof.Request{Sources: picks[:2], Destinations: picks[2:], ChainLength: 2}

	solver := sof.NewSolver(sof.FromGraph(net.G),
		sof.WithAlgorithm(algo),
		sof.WithVMs(net.VMs...))
	forest, err := solver.Embed(context.Background(), req)
	if err != nil {
		return nil, fmt.Errorf("emu: embedding failed: %w", err)
	}

	// Copies per physical edge: each crossing of a link carries one copy
	// of the stream (multicast duplicates only at branch clones).
	copies := make(map[graph.EdgeID]int)
	edges, _ := forest.Footprint()
	for _, e := range edges {
		copies[e]++
	}

	out := &QoE{Algorithm: algo, Profile: p.Name, ForestCost: forest.TotalCost()}
	for _, d := range req.Destinations {
		route, ok := forest.Route(d)
		if !ok {
			return nil, fmt.Errorf("emu: destination %d unserved", d)
		}
		rate := p.VideoBitrateMbps
		for _, e := range route {
			if share := avail[e] / float64(copies[e]); share < rate {
				rate = share
			}
		}
		// Playback consumes the transcoded rate (the transcoder adapts
		// the 8 Mbps source for congested delivery).
		playRate := p.TranscodedRateMbps
		if playRate == 0 || playRate > p.VideoBitrateMbps {
			playRate = p.VideoBitrateMbps
		}
		q := DestQoE{Dest: d, ThroughputMbps: rate}
		// Startup: fill the playout buffer at the delivery rate, plus the
		// fixed pipeline latency of the chain, which every route runs whole.
		q.StartupSec = p.StartupBufferSec*playRate/rate +
			float64(req.ChainLength)*p.PerVNFDelaySec + float64(len(route))*p.PerHopDelaySec
		// Re-buffering (fluid model): when the delivery rate is below the
		// playback bitrate, playback stalls for the accumulated deficit.
		if rate < playRate {
			q.RebufferSec = p.DurationSec * (playRate/rate - 1)
		}
		out.PerDest = append(out.PerDest, q)
		out.AvgStartupSec += q.StartupSec
		out.AvgRebufferSec += q.RebufferSec
	}
	n := float64(len(out.PerDest))
	out.AvgStartupSec /= n
	out.AvgRebufferSec /= n
	return out, nil
}

// EvaluateAveraged runs Evaluate over several seeds and averages the
// Table II quantities (the paper averages repeated plays).
func EvaluateAveraged(algo sof.Algorithm, mkProfile func(seed int64) Profile, runs int) (*QoE, error) {
	agg := &QoE{Algorithm: algo}
	for s := 0; s < runs; s++ {
		q, err := Evaluate(algo, mkProfile(int64(s)))
		if err != nil {
			return nil, err
		}
		agg.Profile = q.Profile
		agg.AvgStartupSec += q.AvgStartupSec
		agg.AvgRebufferSec += q.AvgRebufferSec
		agg.ForestCost += q.ForestCost
	}
	agg.AvgStartupSec /= float64(runs)
	agg.AvgRebufferSec /= float64(runs)
	agg.ForestCost /= float64(runs)
	return agg, nil
}
