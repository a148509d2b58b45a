package core_test

import (
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

func runGossip(t *testing.T, g *graph.Graph, rounds int, sched sim.WakeScheduler, seed int64) *sim.Result {
	t.Helper()
	res, err := sim.RunSync(sim.Config{
		Graph:     g,
		Model:     sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Congest},
		Adversary: sim.Adversary{Schedule: sched},
		Seed:      seed,
	}, core.PushGossip{Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPushGossipSpreadsOnCompleteGraph: on an expander, push-only gossip
// informs everyone in O(log n) rounds w.h.p.
func TestPushGossipSpreadsOnCompleteGraph(t *testing.T) {
	g := graph.Complete(128)
	for seed := int64(0); seed < 5; seed++ {
		res := runGossip(t, g, 4*8, sim.WakeSingle(0), seed)
		if !res.AllAwake {
			t.Errorf("seed %d: push gossip failed on K_128 with 4·log n rounds", seed)
		}
	}
}

// TestPushGossipFailsOnLollipop reproduces footnote 3 of §1.3: a clique
// with one pendant node has constant vertex expansion, yet push-only
// gossip needs Ω(n) expected rounds to reach the pendant, because asleep
// nodes cannot pull. With a polylog budget the pendant stays asleep for
// most seeds.
func TestPushGossipFailsOnLollipop(t *testing.T) {
	g := graph.Lollipop(64, 1) // K_64 plus one pendant on clique node 0
	pendant := 64
	failures := 0
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		res := runGossip(t, g, 12, sim.WakeSingle(1), seed)
		if res.WakeAt[pendant] == -1 {
			failures++
		}
	}
	// Each round, only node 0 can push to the pendant, with probability
	// 1/64 when it pushes at all: 12 rounds leave the pendant asleep with
	// probability ≥ (1−1/64)^12 ≈ 0.83 per trial.
	if failures < trials/2 {
		t.Errorf("pendant woke in %d/%d short-budget trials; expected push-only gossip to mostly fail", trials-failures, trials)
	}
}

// TestPushGossipEventuallyWakesLollipop: with an Ω(n log n) budget the
// pendant wakes w.h.p.
func TestPushGossipEventuallyWakesLollipop(t *testing.T) {
	g := graph.Lollipop(32, 1)
	res := runGossip(t, g, 32*12, sim.WakeSingle(1), 3)
	if !res.AllAwake {
		t.Error("push gossip with Θ(n log n) budget should wake the pendant")
	}
}

// TestPushGossipMessageBudget: n·T messages at most — one push per awake
// node per round.
func TestPushGossipMessageBudget(t *testing.T) {
	g := graph.Complete(64)
	rounds := 20
	res := runGossip(t, g, rounds, sim.WakeAll{}, 1)
	if res.Messages > g.N()*rounds {
		t.Errorf("messages %d exceed n·T = %d", res.Messages, g.N()*rounds)
	}
}

// TestPushGossipQuiesces: the engine terminates once budgets expire even
// when some nodes never wake. Each wake-up can extend activity by at most
// one budget, so the total round count is bounded by budget·(awake+1).
func TestPushGossipQuiesces(t *testing.T) {
	g := graph.Lollipop(16, 4)
	budget := 5
	res := runGossip(t, g, budget, sim.WakeSingle(1), 2)
	if res.Rounds > budget*(res.AwakeCount+1) {
		t.Errorf("engine ran %d rounds for a %d-round budget and %d awake nodes",
			res.Rounds, budget, res.AwakeCount)
	}
}

// TestPushGossipSpreadsOnRandomRegularExpander: the [SS11] positive case
// the paper cites — push-only gossip works on regular graphs with good
// expansion. Random 6-regular graphs are expanders w.h.p.
func TestPushGossipSpreadsOnRandomRegularExpander(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomRegular(200, 6, rng)
	if !g.Connected() {
		t.Skip("sampled regular graph disconnected (rare)")
	}
	for seed := int64(0); seed < 5; seed++ {
		res := runGossip(t, g, 10*8, sim.WakeSingle(0), seed)
		if !res.AllAwake {
			t.Errorf("seed %d: push gossip failed on a 6-regular expander", seed)
		}
	}
}

// TestPushGossipIsolatedNode: a degree-0 node is immediately quiescent.
func TestPushGossipIsolatedNode(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	res := runGossip(t, g, 10, sim.WakeSingle(0), 1)
	if !res.AllAwake {
		t.Error("singleton should be awake")
	}
	if res.Messages != 0 {
		t.Error("no one to push to")
	}
}
