package lowerbound

import (
	"math"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// TestStarSamplingStallsOnHighDegreeWake reproduces the §1.3 failure mode:
// waking exactly one high-degree node stalls the star-sampling strategy
// with probability ≈ 1 − 1/√(n·log n).
func TestStarSamplingStallsOnHighDegreeWake(t *testing.T) {
	g := graph.Star(400) // center degree 399 > √400·log^{3/2}400 ≈ 294
	seeds := make([]int64, 60)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	frac, err := StallFraction(g, 0, seeds)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(g.N())
	want := 1 - 1/math.Sqrt(n*math.Log(n))
	if frac < want-0.15 {
		t.Errorf("stall fraction %.2f; §1.3 predicts ≈ %.2f", frac, want)
	}
}

// TestStarSamplingProceedsFromLowDegree: waking a low-degree node (a star
// leaf) always makes progress — the fragility is specific to high-degree
// non-stars.
func TestStarSamplingProceedsFromLowDegree(t *testing.T) {
	g := graph.Star(400)
	seeds := []int64{1, 2, 3, 4, 5}
	frac, err := StallFraction(g, 7, seeds) // a leaf, degree 1
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0 {
		t.Errorf("leaf wake stalled in %.0f%% of runs; low-degree nodes always act", frac*100)
	}
}

// TestDFSRankDoesNotStall: the Theorem 3 algorithm is immune to the same
// adversarial single-wake — this is exactly the robustness the paper's
// algorithms provide over the MST-style sampling.
func TestDFSRankDoesNotStall(t *testing.T) {
	setup, err := sim.NewSetup(graph.Star(400), nil, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		res, err := sim.RunAsync(sim.Config{
			Setup:    setup,
			Schedule: sim.WakeSingle(0),
			Seed:     seed,
		}, core.DFSRank{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllAwake {
			t.Fatalf("seed %d: dfs-rank failed to wake the star", seed)
		}
	}
}

// TestBlindProberSuccessRate: probing t of deg ports finds each needle
// with probability t/deg; the measured needle fraction must track it.
func TestBlindProberSuccessRate(t *testing.T) {
	in, err := BuildG(96, 3)
	if err != nil {
		t.Fatal(err)
	}
	deg := in.CoreDegree + 1
	for _, probes := range []int{deg / 8, deg / 2, deg} {
		var totalFound int
		const runs = 5
		for seed := int64(0); seed < runs; seed++ {
			rep, err := Run(in, sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest},
				BlindProber{Probes: probes}, nil, sim.UnitDelay{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			totalFound += rep.NeedlesFound
		}
		got := float64(totalFound) / float64(runs*len(in.W))
		want := float64(probes) / float64(deg)
		if math.Abs(got-want) > 0.12 {
			t.Errorf("probes=%d: needle rate %.2f, want ≈ %.2f", probes, got, want)
		}
	}
}

// TestNIHResponderAccounting: the Lemma 1 wrapper adds at most |W| extra
// messages and one extra time unit over the bare algorithm.
func TestNIHResponderAccounting(t *testing.T) {
	in, err := BuildG(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	model := sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}
	bare, err := Run(in, model, core.DFSRank{}, nil, sim.UnitDelay{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Run(in, model, NIHResponder{Inner: core.DFSRank{}}, nil, sim.UnitDelay{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !wrapped.Solved {
		t.Fatal("wrapped run did not solve NIH")
	}
	extra := wrapped.Result.Messages - bare.Result.Messages
	if extra < 0 || extra > len(in.W) {
		t.Errorf("reduction added %d messages; Lemma 1 allows at most n = %d", extra, len(in.W))
	}
	if wrapped.Result.Span > bare.Result.Span+1 {
		t.Errorf("reduction added %.1f time units; Lemma 1 allows 1",
			float64(wrapped.Result.Span-bare.Result.Span))
	}
}

// TestNIHResponderTransparent: the wrapper must not change which nodes
// wake (responses are absorbed before reaching the inner machine).
func TestNIHResponderTransparent(t *testing.T) {
	in, err := BuildG(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	model := sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}
	bare, err := Run(in, model, core.DFSRank{}, nil, sim.UnitDelay{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Run(in, model, NIHResponder{Inner: core.DFSRank{}}, nil, sim.UnitDelay{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Result.AwakeCount != wrapped.Result.AwakeCount {
		t.Errorf("wrapper changed awake count: %d vs %d", bare.Result.AwakeCount, wrapped.Result.AwakeCount)
	}
}
