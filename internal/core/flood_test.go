package core_test

import (
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

func runFlood(t *testing.T, g *graph.Graph, sched sim.WakeScheduler, delays sim.Delayer) *sim.Result {
	t.Helper()
	res, err := sim.RunAsync(sim.Config{
		Graph: g,
		Model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest},
		Adversary: sim.Adversary{
			Schedule: sched,
			Delays:   delays,
		},
	}, core.Flood{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CongestViolations != 0 {
		t.Fatalf("%d CONGEST violations", res.CongestViolations)
	}
	return res
}

// TestFloodMessageCountExactly2M: every node broadcasts once on waking, so
// the total message count is exactly the sum of degrees.
func TestFloodMessageCountExactly2M(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(80, 0.05, rng)
		res := runFlood(t, g, sim.WakeSingle(0), sim.RandomDelay{Seed: int64(trial)})
		if res.Messages != 2*g.M() {
			t.Fatalf("trial %d: %d messages, want 2m = %d", trial, res.Messages, 2*g.M())
		}
		if !res.AllAwake {
			t.Fatal("flood failed to wake everyone")
		}
	}
}

// TestFloodWakeSpanEqualsAwakeDistance: under unit delays the flooding
// wake span equals ρ_awk exactly — the definitional identity of §1.2.
func TestFloodWakeSpanEqualsAwakeDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(70, 0.04, rng)
		k := 1 + rng.Intn(4)
		sched := sim.RandomWake{Count: k, Seed: int64(trial)}
		res := runFlood(t, g, sched, sim.UnitDelay{})
		rho := g.AwakeDistance(res.AwakeSet())
		if float64(res.WakeSpan) != float64(rho) {
			t.Fatalf("trial %d: wake span %v, ρ_awk %d", trial, res.WakeSpan, rho)
		}
	}
}

// TestFloodWakeSpanBoundedByRhoUnderAnyDelays: with delays ≤ τ = 1 the
// wake span never exceeds ρ_awk time units.
func TestFloodWakeSpanBoundedByRhoUnderAnyDelays(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(70, 0.04, rng)
		sched := sim.RandomWake{Count: 2, Window: 2, Seed: int64(trial)}
		res := runFlood(t, g, sched, sim.RandomDelay{Seed: int64(trial)})
		rho := g.AwakeDistance(res.AwakeSet())
		// Later adversarial wake-ups can only help other nodes; the last
		// node is awake within ρ_awk of the last scheduled wake-up, and
		// within window+ρ_awk of the first.
		if float64(res.WakeSpan) > float64(rho)+2 {
			t.Fatalf("trial %d: wake span %v, ρ_awk %d", trial, res.WakeSpan, rho)
		}
	}
}

// TestFloodIsolatedNode: a singleton graph wakes trivially with zero
// messages.
func TestFloodSingleton(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	res := runFlood(t, g, sim.WakeSingle(0), sim.UnitDelay{})
	if !res.AllAwake || res.Messages != 0 {
		t.Errorf("singleton: awake=%v msgs=%d", res.AllAwake, res.Messages)
	}
}

// TestFloodDisconnectedComponentStaysAsleep: flooding cannot cross
// components; nodes in an untouched component never wake. This pins down
// the engine's notion of AllAwake.
func TestFloodDisconnectedComponentStaysAsleep(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	res := runFlood(t, g, sim.WakeSingle(0), sim.UnitDelay{})
	if res.AllAwake {
		t.Error("nodes across the cut should stay asleep")
	}
	if res.AwakeCount != 2 {
		t.Errorf("awake count = %d, want 2", res.AwakeCount)
	}
	if res.WakeAt[2] != -1 || res.WakeAt[3] != -1 {
		t.Error("sleeping nodes should report WakeAt = -1")
	}
}

// TestFloodFitsCongest: flooding messages fit the CONGEST limit.
func TestFloodFitsCongest(t *testing.T) {
	g := graph.Complete(50)
	res := runFlood(t, g, sim.WakeSingle(0), sim.UnitDelay{})
	if res.CongestViolations != 0 {
		t.Errorf("%d CONGEST violations", res.CongestViolations)
	}
}
