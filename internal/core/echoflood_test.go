package core_test

import (
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

type completion struct {
	initiator graph.NodeID
	at        sim.Time
}

func runEcho(t *testing.T, g *graph.Graph, sched sim.WakeScheduler, delays sim.Delayer, seed int64) ([]completion, *sim.Result) {
	t.Helper()
	var completions []completion
	alg := core.EchoFlood{
		OnComplete: func(initiator graph.NodeID, at sim.Time) {
			completions = append(completions, completion{initiator, at})
		},
	}
	res, err := sim.RunAsync(sim.Config{
		Setup:    setupOf(g, sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}),
		Schedule: sched,
		Delays:   delays,
		Seed:     seed,
	}, alg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CongestViolations != 0 {
		t.Fatalf("%d CONGEST violations", res.CongestViolations)
	}
	return completions, res
}

// TestEchoFloodDetectsCompletion: every initiator's wave completes, and
// only after every node is awake.
func TestEchoFloodDetectsCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := map[string]*graph.Graph{
		"path":  graph.Path(30),
		"cycle": graph.Cycle(25),
		"star":  graph.Star(40),
		"gnp":   graph.RandomConnected(100, 0.05, rng),
		"grid":  graph.Grid(8, 8),
	}
	for name, g := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			sched := sim.RandomWake{Count: 3, Window: 2, Seed: seed}
			completions, res := runEcho(t, g, sched, sim.RandomDelay{Seed: seed}, seed)
			if !res.AllAwake {
				t.Fatalf("%s seed %d: not all awake", name, seed)
			}
			initiators := len(res.AwakeSet())
			if len(completions) != initiators {
				t.Fatalf("%s seed %d: %d completions for %d initiators", name, seed, len(completions), initiators)
			}
			var lastWake sim.Time
			for _, at := range res.WakeAt {
				if at > lastWake {
					lastWake = at
				}
			}
			for _, c := range completions {
				if c.at < lastWake {
					t.Errorf("%s seed %d: initiator %d declared completion at %v before the last wake-up at %v",
						name, seed, c.initiator, c.at, lastWake)
				}
			}
		}
	}
}

// TestEchoFloodSingleInitiatorCosts: one wave costs at most 2m+n messages
// and completes within ≈ 2·ecc time.
func TestEchoFloodSingleInitiatorCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(120, 0.06, rng)
	completions, res := runEcho(t, g, sim.WakeSingle(0), sim.UnitDelay{}, 1)
	if len(completions) != 1 {
		t.Fatalf("%d completions", len(completions))
	}
	if res.Messages > 2*g.M()+g.N() {
		t.Errorf("messages %d exceed 2m+n = %d", res.Messages, 2*g.M()+g.N())
	}
	ecc := g.Eccentricity(0)
	if float64(completions[0].at) > float64(4*ecc+2) {
		t.Errorf("completion at %v; expected ≈ 2·ecc = %d", completions[0].at, 2*ecc)
	}
}

// TestEchoFloodIsolatedInitiator: a singleton completes instantly.
func TestEchoFloodSingleton(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	completions, res := runEcho(t, g, sim.WakeSingle(0), sim.UnitDelay{}, 1)
	if len(completions) != 1 || completions[0].at != 0 {
		t.Errorf("completions = %v", completions)
	}
	if res.Messages != 0 {
		t.Errorf("messages = %d", res.Messages)
	}
}

// TestEchoFloodCompletionIsTight: under unit delays with a single source
// the completion fires no earlier than ecc+1 (the wave must reach the
// farthest node and at least start echoing back).
func TestEchoFloodCompletionNotPremature(t *testing.T) {
	g := graph.Path(20)
	completions, _ := runEcho(t, g, sim.WakeSingle(0), sim.UnitDelay{}, 1)
	if len(completions) != 1 {
		t.Fatal("no completion")
	}
	// Wave reaches the end in 19 units, ack travels back 19: exactly 38.
	if completions[0].at != 38 {
		t.Errorf("completion at %v, want 38 on a 20-path", completions[0].at)
	}
}

// TestEchoFloodManyInitiators: waves stay independent; message bill
// scales with the number of initiators but all complete.
func TestEchoFloodManyInitiators(t *testing.T) {
	g := graph.Grid(7, 7)
	completions, res := runEcho(t, g, sim.RandomWake{Count: 6, Seed: 9}, sim.RandomDelay{Seed: 9}, 9)
	if len(completions) != 6 {
		t.Fatalf("%d completions, want 6", len(completions))
	}
	if res.Messages > 6*(2*g.M()+g.N()) {
		t.Errorf("messages %d exceed the 6-wave envelope", res.Messages)
	}
}
