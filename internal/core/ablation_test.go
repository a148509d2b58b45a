package core_test

import (
	"math"
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// TestAblationDFSRanksMatter: without rank-based discarding, every source
// runs a full traversal and the message complexity grows by roughly the
// number of sources; with ranks it stays Õ(n).
func TestAblationDFSRanksMatter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(150, 0.05, rng)
	sched := sim.RandomWake{Count: 40, Seed: 2}
	run := func(disable bool) int {
		res, err := sim.RunAsync(sim.Config{
			Graph: g,
			Model: sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local},
			Adversary: sim.Adversary{
				Schedule: sched,
				Delays:   sim.RandomDelay{Seed: 3},
			},
			Seed: 4,
		}, core.DFSRank{DisableRanks: disable})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllAwake {
			t.Fatal("not all awake")
		}
		return res.Messages
	}
	withRanks := run(false)
	withoutRanks := run(true)
	if withoutRanks < 4*withRanks {
		t.Errorf("rank ablation too mild: %d vs %d messages", withoutRanks, withRanks)
	}
	n := float64(g.N())
	if float64(withRanks) > 16*n*math.Log(n) {
		t.Errorf("ranked version should stay Õ(n), got %d", withRanks)
	}
	// 40 independent traversals cost ≈ 40·2(n−1).
	if withoutRanks > 40*2*g.N() {
		t.Errorf("unranked version above the s·2n ceiling: %d", withoutRanks)
	}
}

// TestAblationCENBinaryVsUnary: on a star the binary sibling heap wakes
// the leaves in O(log n) time, while the unary linked list needs Θ(n) —
// isolating the log-factor claim of Theorem 5(B).
func TestAblationCENBinaryVsUnary(t *testing.T) {
	g := graph.Star(256)
	pm := graph.RandomPorts(g, rand.New(rand.NewSource(5)))
	run := func(unary bool) sim.Time {
		res := runScheme(t, g, pm, core.CENOracle{Unary: unary}, core.CEN{},
			sim.WakeSingle(0), sim.UnitDelay{})
		if !res.AllAwake {
			t.Fatal("not all awake")
		}
		return res.WakeSpan
	}
	binary := run(false)
	unary := run(true)
	if float64(binary) > 2*math.Log2(256)+4 {
		t.Errorf("binary heap wake span %v exceeds 2·log2 n", binary)
	}
	if float64(unary) < 255 {
		t.Errorf("unary chain wake span %v; expected ≈ 2·(n−1)", unary)
	}
	if unary < 8*binary {
		t.Errorf("ablation separation too small: binary %v vs unary %v", binary, unary)
	}
}

// TestAblationCENUnaryStillCorrect: the unary variant remains a correct
// wake-up scheme on general graphs, only slower.
func TestAblationCENUnaryStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomConnected(100, 0.05, rng)
		pm := graph.RandomPorts(g, rng)
		res := runScheme(t, g, pm, core.CENOracle{Unary: true}, core.CEN{},
			sim.RandomWake{Count: 2, Seed: int64(trial)}, sim.RandomDelay{Seed: int64(trial)})
		if !res.AllAwake {
			t.Fatalf("trial %d: not all awake", trial)
		}
		if res.Messages > 4*g.N() {
			t.Errorf("trial %d: unary variant sent %d messages (> 4n)", trial, res.Messages)
		}
	}
}

// TestAblationFastWakeUpSampling: the subsampling step is what separates
// FastWakeUp's message bill from flooding: with RootProb=1 every active
// node builds a tree (messages blow past the sampled version on an
// all-awake dense graph).
func TestAblationFastWakeUpSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(250, 0.25, rng)
	run := func(prob float64) int {
		res, err := sim.RunSync(sim.Config{
			Graph:     g,
			Model:     sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local},
			Adversary: sim.Adversary{Schedule: sim.WakeAll{}},
			Seed:      8,
		}, core.FastWakeUp{RootProb: prob})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllAwake {
			t.Fatal("not all awake")
		}
		return res.Messages
	}
	sampled := run(0) // √(ln n / n) ≈ 0.15
	allRoots := run(1)
	if allRoots <= sampled {
		t.Errorf("sampling ablation: allRoots %d should exceed sampled %d", allRoots, sampled)
	}
}
