package core_test

import (
	"math"
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

func runCongestDFS(t *testing.T, g *graph.Graph, sched sim.WakeScheduler, delays sim.Delayer, seed int64) *sim.Result {
	t.Helper()
	res, err := sim.RunAsync(sim.Config{
		Setup:    mustSetup(g, graph.RandomPorts(g, rand.New(rand.NewSource(seed))), sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, nil, nil),
		Schedule: sched,
		Delays:   delays,
		Seed:     seed,
	}, core.CongestDFS{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCongestDFSWakesEveryone across graphs, schedules, and delays.
func TestCongestDFSWakesEveryone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := map[string]*graph.Graph{
		"path":  graph.Path(40),
		"cycle": graph.Cycle(33),
		"star":  graph.Star(50),
		"gnp":   graph.RandomConnected(100, 0.05, rng),
		"grid":  graph.Grid(8, 8),
	}
	for name, g := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			res := runCongestDFS(t, g, sim.RandomWake{Count: 3, Seed: seed},
				sim.RandomDelay{Seed: seed}, seed)
			if !res.AllAwake {
				t.Fatalf("%s seed %d: only %d/%d awake", name, seed, res.AwakeCount, res.N)
			}
		}
	}
}

// TestCongestDFSFitsCongest: the token must respect the O(log n) message
// bound — the whole point of the variant.
func TestCongestDFSFitsCongest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(200, 0.04, rng)
	res := runCongestDFS(t, g, sim.WakeSingle(0), sim.UnitDelay{}, 3)
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	if res.CongestViolations != 0 {
		t.Errorf("%d CONGEST violations", res.CongestViolations)
	}
}

// TestCongestDFSSingleSourceEdgeProportional: one traversal crosses each
// edge O(1) times — messages between m and 4m+2n.
func TestCongestDFSSingleSourceMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(150, 0.06, rng)
	res := runCongestDFS(t, g, sim.WakeSingle(0), sim.RandomDelay{Seed: 4}, 4)
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	if res.Messages < g.M() {
		t.Errorf("messages %d below m = %d: a KT0 traversal cannot skip edges", res.Messages, g.M())
	}
	if res.Messages > 4*g.M()+2*g.N() {
		t.Errorf("messages %d above the 4m+2n DFS envelope", res.Messages)
	}
}

// TestCongestVsLocalDFSSeparation: on the Theorem 2 family, the CONGEST
// traversal pays edge-proportional Θ(n^{1+1/k}) messages while the LOCAL
// DFS of Theorem 3 pays Õ(n) — quantifying what unbounded messages buy.
func TestCongestVsLocalDFSSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(400, 0.1, rng) // m ≈ 8000 » n
	local, err := sim.RunAsync(sim.Config{
		Setup:    setupOf(g, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}),
		Schedule: sim.WakeSingle(0),
		Seed:     6,
	}, core.DFSRank{})
	if err != nil {
		t.Fatal(err)
	}
	congest := runCongestDFS(t, g, sim.WakeSingle(0), sim.UnitDelay{}, 6)
	if !local.AllAwake || !congest.AllAwake {
		t.Fatal("not all awake")
	}
	if congest.Messages < 3*local.Messages {
		t.Errorf("separation too small: congest %d vs local %d messages",
			congest.Messages, local.Messages)
	}
	if local.Messages > 2*g.N() {
		t.Errorf("LOCAL DFS should stay ≤ 2n for one source, got %d", local.Messages)
	}
}

// TestCongestDFSManySources: rank discarding keeps the total at
// Õ(m) even with many initiators.
func TestCongestDFSManySources(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(150, 0.05, rng)
	res := runCongestDFS(t, g, sim.WakeAll{}, sim.RandomDelay{Seed: 8}, 8)
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	bound := 8 * float64(g.M()) * math.Log(float64(g.N()))
	if float64(res.Messages) > bound {
		t.Errorf("messages %d exceed Õ(m) envelope %.0f", res.Messages, bound)
	}
}
