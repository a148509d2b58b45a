//go:build !race

package core_test

import (
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// TestFloodModelCheckedAtMillion runs flood on a 10⁶-node binary tree, at
// the scale of the published large-n digest and the flood-1e6 benchmark,
// with ports tracked and a fresh ModelCheck attached: every tally the
// Result derives from the per-edge message counts (Messages, SentBy,
// ReceivedBy, PortsUsed) is checked against the event stream, on the
// sequential core and on two shards. It takes a few seconds and about
// 400 MiB, so -short skips it, and the race detector's footprint keeps
// it out of race builds.
func TestFloodModelCheckedAtMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-node run")
	}
	g := graph.BinaryTree(1_000_000)
	pm := graph.RandomPorts(g, rand.New(rand.NewSource(1)))
	model := sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}
	setup := mustSetup(g, pm, model, nil, nil)
	for _, tc := range []struct {
		name   string
		delays sim.Delayer
		shards int
	}{
		{"sequential/random", sim.RandomDelay{Seed: 1}, 0},
		{"shards2/random:0.25", sim.RandomDelay{Seed: 1, Min: 0.25}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := sim.RunAsync(sim.Config{
				Setup:      setup,
				Schedule:   sim.WakeSingle(0),
				Delays:     tc.delays,
				Seed:       1,
				Shards:     tc.shards,
				TrackPorts: true,
				MemReport:  true,
				Observer:   sim.NewModelCheck(g, pm, model),
			}, core.Flood{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllAwake || res.Messages != 2*g.M() {
				t.Fatalf("%d/%d awake after %d messages; flood wakes everyone with 2m = %d", res.AwakeCount, res.N, res.Messages, 2*g.M())
			}
			if res.Mem.Shards != tc.shards { // 0: the sequential core
				t.Fatalf("ran on %d shards, want %d", res.Mem.Shards, tc.shards)
			}
			for v, p := range res.PortsUsed {
				if p != g.Degree(v) {
					t.Fatalf("node %d used %d of its %d ports; flood uses all", v, p, g.Degree(v))
				}
			}
		})
	}
}
