package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// trackCount is an ExecTracer that records the number of trace tracks a
// run declares: 1 for a sequential or synchronous run, P+1 for a run
// sharded P ways.
type trackCount struct {
	clock  atomic.Int64
	tracks int
}

func (r *trackCount) ExecBegin(tracks int)    { r.tracks = tracks }
func (r *trackCount) ExecNow() int64          { return r.clock.Add(1) }
func (r *trackCount) ExecRecord(sim.ExecSpan) {}

// TestEngineReuseAcrossTimingModels alternates one Engine between the two
// timing models: fast-wakeup and an adapted flood through RunSync, flood
// through Run sequentially and on two shards, on graphs that shrink and
// grow between runs. Every Result and transcript digest must equal a
// fresh engine's, with a ModelCheck riding along (WithDigests), so no
// scratch one model leaves behind — node records, RNG bindings, queue
// state, the machine table, inbox offsets — can leak into the next run.
func TestEngineReuseAcrossTimingModels(t *testing.T) {
	kt0 := sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Local}
	kt1 := sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}
	type step struct {
		name   string
		model  sim.Model
		delays sim.Delayer
		shards int
		run    func(*sim.Engine, sim.Config) (*sim.Result, error)
	}
	steps := []step{
		{"fast-wakeup", kt1, nil, 0, func(e *sim.Engine, cfg sim.Config) (*sim.Result, error) {
			return e.RunSync(cfg, core.FastWakeUp{})
		}},
		{"flood", kt0, sim.RandomDelay{Seed: 5}, 0, func(e *sim.Engine, cfg sim.Config) (*sim.Result, error) {
			return e.Run(cfg, core.Flood{})
		}},
		{"sync-flood", kt0, nil, 0, func(e *sim.Engine, cfg sim.Config) (*sim.Result, error) {
			return e.RunSync(cfg, sim.AsSync(core.Flood{}))
		}},
		{"sharded-flood", kt0, sim.RandomDelay{Seed: 6, Min: 0.25}, 2, func(e *sim.Engine, cfg sim.Config) (*sim.Result, error) {
			return e.Run(cfg, core.Flood{})
		}},
	}
	graphs := []*graph.Graph{
		graph.RandomConnected(90, 0.07, rand.New(rand.NewSource(1))),
		graph.Complete(12),
		graph.RandomConnected(120, 0.05, rand.New(rand.NewSource(2))),
		graph.Path(25),
	}
	eng := &sim.Engine{}
	for gi, g := range graphs {
		for _, st := range steps {
			t.Run(fmt.Sprintf("graph%d/%s", gi, st.name), func(t *testing.T) {
				cfg := sim.Config{
					Graph:     g,
					Model:     st.model,
					Adversary: sim.Adversary{Schedule: sim.RandomWake{Count: 3, Window: 2, Seed: int64(gi)}, Delays: st.delays},
					Seed:      int64(gi + 7),
				}
				fresh, err := st.run(new(sim.Engine), sim.WithDigests(cfg))
				if err != nil {
					t.Fatalf("fresh: %v", err)
				}
				tr := &trackCount{}
				cfg.Shards, cfg.Tracer = st.shards, tr
				reused, err := st.run(eng, sim.WithDigests(cfg))
				if err != nil {
					t.Fatalf("reused: %v", err)
				}
				if st.shards > 1 && tr.tracks != st.shards+1 {
					t.Fatalf("%d trace tracks, want %d: the run did not shard", tr.tracks, st.shards+1)
				}
				a, b := sim.MarshalDigested(t, fresh), sim.MarshalDigested(t, reused)
				if !bytes.Equal(a, b) {
					t.Fatalf("reused engine diverged from a fresh one\nfresh:  %s\nreused: %s", a, b)
				}
			})
		}
	}
}
