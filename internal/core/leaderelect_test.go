package core_test

import (
	"math"
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// electionResult runs leader election and collects per-node decisions.
func electionResult(t *testing.T, g *graph.Graph, sched sim.WakeScheduler, delays sim.Delayer, seed int64) (map[graph.NodeID]graph.NodeID, *sim.Result) {
	t.Helper()
	decisions := make(map[graph.NodeID]graph.NodeID)
	alg := core.LeaderElect{
		Report: func(node, leader graph.NodeID) {
			if prev, ok := decisions[node]; ok && prev != leader {
				t.Fatalf("node %d decided twice: %d then %d", node, prev, leader)
			}
			decisions[node] = leader
		},
	}
	res, err := sim.RunAsync(sim.Config{
		Setup:    setupOf(g, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}),
		Schedule: sched,
		Delays:   delays,
		Seed:     seed,
	}, alg)
	if err != nil {
		t.Fatal(err)
	}
	return decisions, res
}

// TestLeaderElectionAgreement: every node decides, and all decide the
// same leader, across graphs, schedules, delays, and seeds.
func TestLeaderElectionAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := map[string]*graph.Graph{
		"path":  graph.Path(40),
		"cycle": graph.Cycle(41),
		"star":  graph.Star(30),
		"gnp":   graph.RandomConnected(120, 0.04, rng),
		"grid":  graph.Grid(9, 9),
	}
	for name, g := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			decisions, res := electionResult(t, g,
				sim.RandomWake{Count: 4, Window: 5, Seed: seed},
				sim.RandomDelay{Seed: seed}, seed)
			if !res.AllAwake {
				t.Fatalf("%s seed %d: not all awake", name, seed)
			}
			if len(decisions) != g.N() {
				t.Fatalf("%s seed %d: only %d/%d nodes decided", name, seed, len(decisions), g.N())
			}
			var leader graph.NodeID = -1
			for node, l := range decisions {
				if leader == -1 {
					leader = l
				}
				if l != leader {
					t.Fatalf("%s seed %d: node %d chose %d, others chose %d", name, seed, node, l, leader)
				}
			}
		}
	}
}

// TestLeaderIsAnInitiator: the elected leader must be one of the
// adversary-woken nodes (only they launch traversals).
func TestLeaderIsAnInitiator(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(80, 0.06, rng)
	decisions, res := electionResult(t, g,
		sim.RandomWake{Count: 5, Seed: 7}, sim.RandomDelay{Seed: 7}, 7)
	initiators := make(map[graph.NodeID]bool)
	for _, v := range res.AwakeSet() {
		initiators[g.ID(v)] = true
	}
	for node, leader := range decisions {
		if !initiators[leader] {
			t.Fatalf("node %d elected non-initiator %d", node, leader)
		}
	}
}

// TestLeaderElectionSingleSource: with one initiator, it elects itself.
func TestLeaderElectionSingleSource(t *testing.T) {
	g := graph.Grid(6, 6)
	decisions, _ := electionResult(t, g, sim.WakeSingle(17), sim.UnitDelay{}, 1)
	want := g.ID(17)
	for node, leader := range decisions {
		if leader != want {
			t.Fatalf("node %d elected %d, want %d", node, leader, want)
		}
	}
}

// TestLeaderElectionMessageEnvelope: O(n log n) messages plus the O(n)
// announcement even under adversarial staggering.
func TestLeaderElectionMessageEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(200, 0.04, rng)
	_, res := electionResult(t, g,
		sim.StaggeredWake{Sizes: []int{1, 2, 4, 8, 16}, Gap: 40, Seed: 5},
		sim.RandomDelay{Seed: 5}, 5)
	n := float64(g.N())
	if float64(res.Messages) > 20*n*math.Log(n) {
		t.Errorf("messages %d exceed Õ(n) envelope", res.Messages)
	}
}

// TestLeaderElectionDeterministicReplay: same seeds, same leader.
func TestLeaderElectionDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomConnected(60, 0.08, rng)
	d1, _ := electionResult(t, g, sim.RandomWake{Count: 3, Seed: 9}, sim.RandomDelay{Seed: 9}, 9)
	d2, _ := electionResult(t, g, sim.RandomWake{Count: 3, Seed: 9}, sim.RandomDelay{Seed: 9}, 9)
	for node, l1 := range d1 {
		if d2[node] != l1 {
			t.Fatalf("node %d: leader differs across replays", node)
		}
	}
}
