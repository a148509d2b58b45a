package riseandshine_test

import (
	"testing"

	"riseandshine"
)

// TestCongestComplianceMatrix runs every algorithm whose default model is
// CONGEST on a larger network: no message may exceed the O(log n) budget. This pins the bit-level realism of the
// advice schemes' messages.
func TestCongestComplianceMatrix(t *testing.T) {
	g := riseandshine.RandomConnected(600, 0.02, 5)
	ports := riseandshine.RandomPorts(g, 7)
	for _, name := range riseandshine.Algorithms() {
		info, err := riseandshine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Model.Bandwidth != riseandshine.Congest {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := riseandshine.Run(riseandshine.RunConfig{
				Graph:     g,
				Algorithm: name,
				Schedule:  riseandshine.RandomWake{Count: 3, Seed: 2},
				Delays:    riseandshine.RandomDelay{Seed: 3},
				Ports:     ports,
				Seed:      4,
				Options:   riseandshine.Options{GossipRounds: 4000},
			})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if !res.AllAwake {
				t.Fatalf("only %d/%d awake", res.AwakeCount, res.N)
			}
			if res.CongestViolations != 0 {
				t.Fatalf("%d violations", res.CongestViolations)
			}
		})
	}
}

// TestOracleErrorsPropagateThroughRun: an advising scheme on a
// disconnected graph must fail cleanly at the oracle stage.
func TestOracleErrorsPropagateThroughRun(t *testing.T) {
	b := riseandshine.NewGraphBuilder(4)
	b.AddEdge(0, 1) // {2,3} disconnected
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fip06", "threshold", "cen", "spanner"} {
		if _, err := riseandshine.Run(riseandshine.RunConfig{
			Graph:     g,
			Algorithm: name,
		}); err == nil {
			t.Errorf("%s: expected oracle error on disconnected graph", name)
		}
	}
}
