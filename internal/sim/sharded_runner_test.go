package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"riseandshine/internal/experiment"
	"riseandshine/internal/graph"
)

// TestShardedPartitionAcrossRunnerCells drives the partition cache the way
// a sweep does: the experiment Runner reuses one engine per worker, and
// cells with RandomPorts run the same graph under a new port map each. At
// two shards every cell must equal the same cell run sequentially.
func TestShardedPartitionAcrossRunnerCells(t *testing.T) {
	g := graph.Grid(20, 20)
	run := func(shards int) [][]byte {
		specs := make([]experiment.RunSpec, 3)
		for i := range specs {
			specs[i] = experiment.RunSpec{G: g, Algorithm: "flood", Schedule: "random:2", Delays: "random:0.25", RandomPorts: true, Shards: shards}
		}
		results, err := experiment.Runner{Workers: 1}.Run(specs)
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		out := make([][]byte, len(results))
		for i, rr := range results {
			if out[i], err = json.Marshal(rr.Res); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	seq, sharded := run(0), run(2)
	for i := range seq {
		if !bytes.Equal(seq[i], sharded[i]) {
			t.Errorf("cell %d: sharded run diverged from sequential\nseq:     %s\nsharded: %s", i, seq[i], sharded[i])
		}
	}
}
