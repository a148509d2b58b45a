package core_test

import (
	"math"
	"math/rand"
	"testing"

	"riseandshine/internal/advice"
	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// namedGraph pairs a test graph with its subtest name; tables are ordered
// slices so that subtests enumerate in a fixed order on every run.
type namedGraph struct {
	name string
	g    *graph.Graph
}

// testGraphs returns a small zoo of connected graphs exercising different
// degree profiles and diameters.
func testGraphs(t *testing.T) []namedGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return []namedGraph{
		{"path50", graph.Path(50)},
		{"cycle31", graph.Cycle(31)},
		{"star40", graph.Star(40)},
		{"grid8x8", graph.Grid(8, 8)},
		{"complete20", graph.Complete(20)},
		{"tree100", graph.RandomTree(100, rng)},
		{"gnp100", graph.RandomConnected(100, 0.05, rng)},
		{"lollipop", graph.Lollipop(20, 5)},
		{"binary127", graph.BinaryTree(127)},
	}
}

type namedSchedule struct {
	name  string
	sched sim.WakeScheduler
}

func schedules(g *graph.Graph) []namedSchedule {
	return []namedSchedule{
		{"single", sim.WakeSingle(0)},
		{"all", sim.WakeAll{}},
		{"random", sim.RandomWake{Count: 3, Window: 5, Seed: 11}},
	}
}

// biasedDelay slows a seeded half of g's directed edges to τ and sets the
// rest to 2⁻²⁰: long chains of fast messages overtake single slow ones, as
// thread scheduling reorders deliveries in a concurrent execution.
func biasedDelay(g *graph.Graph, seed int64) sim.BiasedDelay {
	rng := rand.New(rand.NewSource(seed))
	slow := make(map[[2]int]bool)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if rng.Intn(2) == 0 {
				slow[[2]int{u, int(v)}] = true
			}
		}
	}
	return sim.BiasedDelay{Slow: slow, Fast: 1.0 / (1 << 20)}
}

// TestAsyncAlgorithmsWakeEveryone runs every asynchronous algorithm on
// every test graph, schedule and delayer, with a fresh ModelCheck on each
// run: everyone must wake, and the engine must honour the model.
func TestAsyncAlgorithmsWakeEveryone(t *testing.T) {
	algs := []struct {
		name   string
		alg    sim.Algorithm
		model  sim.Model
		oracle advice.Oracle
	}{
		{name: "flood", alg: core.Flood{}, model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}},
		{name: "dfs-rank", alg: core.DFSRank{}, model: sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}},
		{name: "fip06", alg: core.FIP06{}, model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, oracle: core.FIP06Oracle{}},
		{name: "threshold", alg: core.Threshold{}, model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, oracle: core.ThresholdOracle{}},
		{name: "cen", alg: core.CEN{}, model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, oracle: core.CENOracle{}},
		{name: "spanner2", alg: core.SpannerScheme{}, model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, oracle: core.SpannerOracle{K: 2}},
		{name: "echo", alg: core.EchoFlood{}, model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}},
		{name: "count", alg: core.CountingWake{}, model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}},
		{name: "cdfs", alg: core.CongestDFS{}, model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}},
		{name: "leader", alg: core.LeaderElect{}, model: sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}},
	}
	for _, tg := range testGraphs(t) {
		gname, g := tg.name, tg.g
		delayers := []struct {
			name  string
			delay sim.Delayer
		}{
			{"unit", sim.UnitDelay{}},
			{"random", sim.RandomDelay{Seed: 3}},
			{"biased", biasedDelay(g, 3)},
		}
		for _, tc := range algs {
			aname := tc.name
			for _, ts := range schedules(g) {
				sname, sched := ts.name, ts.sched
				for _, td := range delayers {
					dname, delay := td.name, td.delay
					name := gname + "/" + aname + "/" + sname + "/" + dname
					t.Run(name, func(t *testing.T) {
						pm := graph.RandomPorts(g, rand.New(rand.NewSource(5)))
						cfg := sim.Config{
							Graph: g,
							Ports: pm,
							Model: tc.model,
							Adversary: sim.Adversary{
								Schedule: sched,
								Delays:   delay,
							},
							Seed:     99,
							Observer: sim.NewModelCheck(g, pm, tc.model),
						}
						if tc.oracle != nil {
							adv, bits, err := tc.oracle.Advise(g, pm)
							if err != nil {
								t.Fatalf("oracle: %v", err)
							}
							cfg.Advice, cfg.AdviceBits = adv, bits
						}
						res, err := sim.RunAsync(cfg, tc.alg)
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						if !res.AllAwake {
							t.Fatalf("only %d/%d nodes woke up", res.AwakeCount, res.N)
						}
					})
				}
			}
		}
	}
}

// TestSyncAlgorithmsWakeEveryone is the synchronous counterpart, also
// under a fresh ModelCheck per run.
func TestSyncAlgorithmsWakeEveryone(t *testing.T) {
	algs := []struct {
		name  string
		alg   sim.SyncAlgorithm
		model sim.Model
	}{
		{name: "flood-sync", alg: sim.AsSync(core.Flood{}), model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}},
		{name: "fast-wakeup", alg: core.FastWakeUp{}, model: sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}},
	}
	for _, tg := range testGraphs(t) {
		gname, g := tg.name, tg.g
		for _, tc := range algs {
			aname := tc.name
			for _, ts := range schedules(g) {
				sname, sched := ts.name, ts.sched
				name := gname + "/" + aname + "/" + sname
				t.Run(name, func(t *testing.T) {
					res, err := sim.RunSync(sim.Config{
						Graph:     g,
						Model:     tc.model,
						Adversary: sim.Adversary{Schedule: sched},
						Seed:      42,
						Observer:  sim.NewModelCheck(g, nil, tc.model),
					}, tc.alg)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if !res.AllAwake {
						t.Fatalf("only %d/%d nodes woke up", res.AwakeCount, res.N)
					}
				})
			}
		}
	}
}

// TestFastWakeUpRhoAwkTime verifies the Theorem 4 guarantee shape: the
// wake-up completes within a constant factor of the awake distance.
func TestFastWakeUpRhoAwkTime(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, tg := range []namedGraph{
		{"grid", graph.Grid(12, 12)},
		{"gnp", graph.RandomConnected(150, 0.03, rng)},
		{"cycle", graph.Cycle(60)},
	} {
		name, g := tg.name, tg.g
		t.Run(name, func(t *testing.T) {
			sched := sim.WakeSingle(0)
			rho := g.AwakeDistance([]int{0})
			res, err := sim.RunSync(sim.Config{
				Graph:     g,
				Model:     sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local},
				Adversary: sim.Adversary{Schedule: sched},
				Seed:      7,
			}, core.FastWakeUp{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.AllAwake {
				t.Fatalf("only %d/%d awake", res.AwakeCount, res.N)
			}
			limit := 10*rho + 11
			if int(res.WakeSpan) > limit {
				t.Errorf("wake span %v exceeds 10·ρ_awk+11 = %d (ρ_awk=%d)", res.WakeSpan, limit, rho)
			}
		})
	}
}

// TestDFSRankMessageBound checks the Theorem 3 shape: messages stay within
// a modest multiple of n·log n even under staggered adversarial wake-ups.
func TestDFSRankMessageBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(300, 0.02, rng)
	sched := sim.StaggeredWake{
		Sizes: []int{1, 1, 2, 4, 8, 16, 32},
		Gap:   50,
		Seed:  13,
	}
	res, err := sim.RunAsync(sim.Config{
		Graph: g,
		Model: sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local},
		Adversary: sim.Adversary{
			Schedule: sched,
			Delays:   sim.RandomDelay{Seed: 17},
		},
		Seed: 21,
	}, core.DFSRank{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.AllAwake {
		t.Fatalf("only %d/%d awake", res.AwakeCount, res.N)
	}
	n := float64(res.N)
	bound := 20 * n * math.Log(n)
	if float64(res.Messages) > bound {
		t.Errorf("messages %d exceed 20·n·ln n = %.0f", res.Messages, bound)
	}
}
