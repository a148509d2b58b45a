package core_test

import (
	"math/rand"
	"testing"

	"riseandshine/internal/advice"
	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// TestEngineEquivalence cross-validates the two deterministic engines:
// for every algorithm, an asynchronous run under unit delays and a
// synchronous run (via the AsSync adapter) must produce identical message
// counts, wake sets, and wake times — the classical equivalence of the
// two models when delays are exactly one unit. Node randomness is keyed
// per node, so the equivalence holds for randomized algorithms too.
func TestEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := graph.RandomConnected(90, 0.06, rng)
	pm := graph.RandomPorts(g, rng)

	cases := []struct {
		name   string
		model  sim.Model
		alg    sim.Algorithm
		oracle advice.Oracle
	}{
		{"flood", sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, core.Flood{}, nil},
		{"echo-flood", sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, core.EchoFlood{}, nil},
		{"dfs-rank", sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}, core.DFSRank{}, nil},
		{"dfs-congest", sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, core.CongestDFS{}, nil},
		{"leader-elect", sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}, core.LeaderElect{}, nil},
		{"fip06", sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, core.FIP06{}, core.FIP06Oracle{}},
		{"threshold", sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, core.Threshold{}, core.ThresholdOracle{}},
		{"cen", sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, core.CEN{}, core.CENOracle{}},
		{"spanner", sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, core.SpannerScheme{}, core.SpannerOracle{K: 2}},
	}
	// Integral wake times so that the synchronous engine (which truncates
	// times to rounds) sees the identical schedule.
	sched := sim.StaggeredWake{Sizes: []int{1, 1, 1}, Gap: 3, Seed: 6}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var adv [][]byte
			var bits []int
			if tc.oracle != nil {
				var err error
				adv, bits, err = tc.oracle.Advise(g, pm)
				if err != nil {
					t.Fatal(err)
				}
			}
			async, err := sim.RunAsync(sim.Config{
				Graph: g,
				Ports: pm,
				Model: tc.model,
				Adversary: sim.Adversary{
					Schedule: sched,
					Delays:   sim.UnitDelay{},
				},
				Seed:       9,
				Advice:     adv,
				AdviceBits: bits,
			}, tc.alg)
			if err != nil {
				t.Fatal(err)
			}
			syncRes, err := sim.RunSync(sim.Config{
				Graph:      g,
				Ports:      pm,
				Model:      tc.model,
				Adversary:  sim.Adversary{Schedule: sched},
				Seed:       9,
				Advice:     adv,
				AdviceBits: bits,
			}, sim.AsSync(tc.alg))
			if err != nil {
				t.Fatal(err)
			}
			if async.Messages != syncRes.Messages {
				t.Errorf("messages differ: async %d vs sync %d", async.Messages, syncRes.Messages)
			}
			if async.AwakeCount != syncRes.AwakeCount {
				t.Errorf("awake counts differ: %d vs %d", async.AwakeCount, syncRes.AwakeCount)
			}
			for v := range async.WakeAt {
				if async.WakeAt[v] != syncRes.WakeAt[v] {
					t.Fatalf("wake time of node %d differs: %v vs %v", v, async.WakeAt[v], syncRes.WakeAt[v])
					break
				}
			}
			if async.MessageBits != syncRes.MessageBits {
				t.Errorf("message bits differ: %d vs %d", async.MessageBits, syncRes.MessageBits)
			}
		})
	}
}
