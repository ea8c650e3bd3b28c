package emu

import (
	"math"
	"testing"

	"sof"
)

func TestEvaluateBasics(t *testing.T) {
	q, err := Evaluate(sof.AlgorithmSOFDA, Testbed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.PerDest) != 4 {
		t.Fatalf("per-dest results = %d, want 4", len(q.PerDest))
	}
	for _, d := range q.PerDest {
		if d.ThroughputMbps <= 0 || d.ThroughputMbps > 8+1e-9 {
			t.Errorf("dest %d throughput %v out of (0,8]", d.Dest, d.ThroughputMbps)
		}
		if d.StartupSec <= 0 {
			t.Errorf("dest %d startup %v", d.Dest, d.StartupSec)
		}
		if d.RebufferSec < 0 {
			t.Errorf("dest %d rebuffer %v", d.Dest, d.RebufferSec)
		}
		// Fluid-model identity: rebuffer = duration·(B/r − 1) when r < B.
		if d.ThroughputMbps < 6 {
			want := 137 * (6/d.ThroughputMbps - 1)
			if math.Abs(d.RebufferSec-want) > 1e-6 {
				t.Errorf("dest %d rebuffer %v, want %v", d.Dest, d.RebufferSec, want)
			}
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, err := Evaluate(sof.AlgorithmEST, Testbed(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(sof.AlgorithmEST, Testbed(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgStartupSec != b.AvgStartupSec || a.AvgRebufferSec != b.AvgRebufferSec {
		t.Fatal("same seed produced different QoE")
	}
}

func TestEmulabProfileFaster(t *testing.T) {
	// More headroom and lower pipeline latency must not hurt QoE on
	// average (Table II: Emulab numbers are lower).
	var tb, em float64
	const runs = 10
	for s := int64(0); s < runs; s++ {
		qt, err := Evaluate(sof.AlgorithmSOFDA, Testbed(s))
		if err != nil {
			t.Fatal(err)
		}
		qe, err := Evaluate(sof.AlgorithmSOFDA, Emulab(s))
		if err != nil {
			t.Fatal(err)
		}
		tb += qt.AvgStartupSec
		em += qe.AvgStartupSec
	}
	if em >= tb {
		t.Errorf("emulab startup (%v) not lower than testbed (%v)", em/runs, tb/runs)
	}
}

// TestTableIIOrdering checks the paper's qualitative result: SOFDA's
// embedding yields lower startup latency and re-buffering than eNEMP and
// eST, averaged over runs.
func TestTableIIOrdering(t *testing.T) {
	const runs = 12
	res := map[sof.Algorithm]*QoE{}
	for _, algo := range []sof.Algorithm{sof.AlgorithmSOFDA, sof.AlgorithmENEMP, sof.AlgorithmEST} {
		q, err := EvaluateAveraged(algo, Testbed, runs)
		if err != nil {
			t.Fatal(err)
		}
		res[algo] = q
	}
	t.Logf("testbed: SOFDA %.1fs/%.1fs  eNEMP %.1fs/%.1fs  eST %.1fs/%.1fs",
		res[sof.AlgorithmSOFDA].AvgStartupSec, res[sof.AlgorithmSOFDA].AvgRebufferSec,
		res[sof.AlgorithmENEMP].AvgStartupSec, res[sof.AlgorithmENEMP].AvgRebufferSec,
		res[sof.AlgorithmEST].AvgStartupSec, res[sof.AlgorithmEST].AvgRebufferSec)
	if res[sof.AlgorithmSOFDA].AvgRebufferSec > res[sof.AlgorithmEST].AvgRebufferSec+1e-6 {
		t.Errorf("SOFDA rebuffering %.2f exceeds eST %.2f",
			res[sof.AlgorithmSOFDA].AvgRebufferSec, res[sof.AlgorithmEST].AvgRebufferSec)
	}
}
