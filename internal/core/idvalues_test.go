package core_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// TestKT1AlgorithmsIgnoreIDValues runs the KT1 algorithms that key state
// by node ID on a graph and on a copy whose IDs go through a strictly
// increasing map onto large negative and positive values, the int64
// extremes and −1 included. Every comparison the algorithms make between IDs
// comes out the same, and node randomness and delays are keyed by node
// index, so the Results must be equal.
func TestKT1AlgorithmsIgnoreIDValues(t *testing.T) {
	g := graph.RandomConnected(300, 0.05, rand.New(rand.NewSource(4)))
	mapped := g.Clone()
	ids := make([]graph.NodeID, g.N())
	for v := range ids {
		ids[v] = graph.NodeID(v-g.N()/2)<<52 + 12345
	}
	ids[0], ids[g.N()/2], ids[g.N()-1] = math.MinInt64, -1, math.MaxInt64
	if err := mapped.SetIDs(ids); err != nil {
		t.Fatal(err)
	}
	model := sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}
	schedules := []struct {
		name  string
		sched sim.WakeScheduler
	}{
		{"all", sim.WakeAll{}},
		{"random:8", sim.RandomWake{Count: 8, Seed: 5}},
	}
	algs := []struct {
		name string
		run  func(*sim.Setup, sim.WakeScheduler) (*sim.Result, error)
	}{
		{"fast-wakeup", func(s *sim.Setup, w sim.WakeScheduler) (*sim.Result, error) {
			return sim.RunSync(sim.Config{Setup: s, Schedule: w, Seed: 6}, core.FastWakeUp{})
		}},
		{"dfs-rank", func(s *sim.Setup, w sim.WakeScheduler) (*sim.Result, error) {
			return sim.RunAsync(sim.Config{Setup: s, Schedule: w, Delays: sim.RandomDelay{Seed: 7}, Seed: 6}, core.DFSRank{})
		}},
		// Two-bit ranks tie often, so the origin IDs decide.
		{"dfs-rank-2bit", func(s *sim.Setup, w sim.WakeScheduler) (*sim.Result, error) {
			return sim.RunAsync(sim.Config{Setup: s, Schedule: w, Delays: sim.RandomDelay{Seed: 7}, Seed: 6}, core.DFSRank{RankBits: 2})
		}},
		{"leader-elect", func(s *sim.Setup, w sim.WakeScheduler) (*sim.Result, error) {
			return sim.RunAsync(sim.Config{Setup: s, Schedule: w, Delays: sim.RandomDelay{Seed: 7}, Seed: 6}, core.LeaderElect{})
		}},
	}
	for _, w := range schedules {
		for _, a := range algs {
			t.Run(w.name+"/"+a.name, func(t *testing.T) {
				want, err := a.run(setupOf(g, model), w.sched)
				if err != nil {
					t.Fatal(err)
				}
				got, err := a.run(setupOf(mapped, model), w.sched)
				if err != nil {
					t.Fatal(err)
				}
				if !want.AllAwake {
					t.Fatal("not all awake")
				}
				want.TranscriptDigests, got.TranscriptDigests = nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Results differ under mapped IDs:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}
