package core_test

import (
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

type countReport struct {
	initiator graph.NodeID
	count     int
	at        sim.Time
}

func runCounting(t *testing.T, g *graph.Graph, sched sim.WakeScheduler, delays sim.Delayer, seed int64) ([]countReport, *sim.Result) {
	t.Helper()
	var reports []countReport
	alg := core.CountingWake{
		OnCount: func(initiator graph.NodeID, count int, at sim.Time) {
			reports = append(reports, countReport{initiator, count, at})
		},
	}
	res, err := sim.RunAsync(sim.Config{
		Graph: g,
		Model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest},
		Adversary: sim.Adversary{
			Schedule: sched,
			Delays:   delays,
		},
		Seed: seed,
	}, alg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CongestViolations != 0 {
		t.Fatalf("%d CONGEST violations", res.CongestViolations)
	}
	return reports, res
}

// TestCountingWakeSingleInitiatorLearnsN: one wave counts the whole
// network exactly.
func TestCountingWakeSingleInitiatorLearnsN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(25)},
		{"star", graph.Star(40)},
		{"grid", graph.Grid(7, 7)},
		{"gnp", graph.RandomConnected(120, 0.05, rng)},
		{"wheel", graph.Wheel(30)},
	}
	for _, tg := range graphs {
		name, g := tg.name, tg.g
		for seed := int64(0); seed < 3; seed++ {
			reports, res := runCounting(t, g, sim.WakeSingle(0), sim.RandomDelay{Seed: seed}, seed)
			if !res.AllAwake {
				t.Fatalf("%s: not all awake", name)
			}
			if len(reports) != 1 {
				t.Fatalf("%s: %d reports", name, len(reports))
			}
			if reports[0].count != g.N() {
				t.Errorf("%s seed %d: counted %d nodes, want %d", name, seed, reports[0].count, g.N())
			}
		}
	}
}

// TestCountingWakeEveryInitiatorLearnsN: waves are independent and each
// floods the whole network, so every initiator independently counts
// exactly n.
func TestCountingWakeEveryInitiatorLearnsN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(150, 0.04, rng)
	for seed := int64(0); seed < 5; seed++ {
		reports, res := runCounting(t, g, sim.RandomWake{Count: 4, Seed: seed}, sim.RandomDelay{Seed: seed}, seed)
		if !res.AllAwake {
			t.Fatal("not all awake")
		}
		if len(reports) != 4 {
			t.Fatalf("seed %d: %d reports, want 4", seed, len(reports))
		}
		for _, r := range reports {
			if r.count != g.N() {
				t.Errorf("seed %d: initiator %d counted %d, want %d", seed, r.initiator, r.count, g.N())
			}
		}
	}
}

// TestCountingWakeCongestCompliant: counters fit O(log n) bits.
func TestCountingWakeCongestCompliant(t *testing.T) {
	g := graph.Complete(64)
	reports, res := runCounting(t, g, sim.WakeSingle(0), sim.UnitDelay{}, 1)
	if res.CongestViolations != 0 {
		t.Errorf("%d violations", res.CongestViolations)
	}
	if len(reports) != 1 || reports[0].count != 64 {
		t.Errorf("reports = %v", reports)
	}
}
