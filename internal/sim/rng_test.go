package sim

import (
	"math/rand"
	"testing"

	"riseandshine/internal/graph"
)

// rngRecorder is a probe algorithm: every machine records the first draws
// of its node-private random stream on wake and sends nothing.
type rngRecorder struct {
	draws map[graph.NodeID][]int64
}

func newRNGRecorder() *rngRecorder {
	return &rngRecorder{draws: make(map[graph.NodeID][]int64)}
}

func (r *rngRecorder) Name() string { return "rng-recorder" }

func (r *rngRecorder) NewMachine(info NodeInfo) Program {
	return &rngRecorderMachine{rec: r, id: info.ID}
}

type rngRecorderMachine struct {
	rec *rngRecorder
	id  graph.NodeID
}

func (m *rngRecorderMachine) OnWake(ctx Context) {
	vals := make([]int64, 4)
	for i := range vals {
		vals[i] = ctx.Rand().Int63()
	}
	m.rec.draws[m.id] = vals
}

func (m *rngRecorderMachine) OnMessage(Context, Delivery) {}

// TestCrossEngineRNGStreams: for the same seed, each node observes the
// same private random stream under the asynchronous engine, under the
// synchronous engine, and from NodeRand directly — the shared derivation
// rule both engines use.
func TestCrossEngineRNGStreams(t *testing.T) {
	g := graph.Grid(6, 6)
	const seed = 97
	model := Model{Knowledge: KT0, Bandwidth: Local}

	asyncRec := newRNGRecorder()
	if _, err := RunAsync(Config{
		Graph:     g,
		Model:     model,
		Adversary: Adversary{Schedule: WakeAll{}},
		Seed:      seed,
	}, asyncRec); err != nil {
		t.Fatal(err)
	}

	syncRec := newRNGRecorder()
	if _, err := RunSync(Config{
		Graph:     g,
		Model:     model,
		Adversary: Adversary{Schedule: WakeAll{}},
		Seed:      seed,
	}, AsSync(syncRec)); err != nil {
		t.Fatal(err)
	}

	if len(asyncRec.draws) != g.N() || len(syncRec.draws) != g.N() {
		t.Fatalf("recorded %d (async) and %d (sync) nodes, want %d",
			len(asyncRec.draws), len(syncRec.draws), g.N())
	}
	for v := 0; v < g.N(); v++ {
		id := g.ID(v)
		want := NodeRand(seed, v)
		for i := 0; i < 4; i++ {
			ref := want.Int63()
			if asyncRec.draws[id][i] != ref {
				t.Fatalf("node %d draw %d: async engine %d, NodeRand %d", v, i, asyncRec.draws[id][i], ref)
			}
			if syncRec.draws[id][i] != ref {
				t.Fatalf("node %d draw %d: sync engine %d, NodeRand %d", v, i, syncRec.draws[id][i], ref)
			}
		}
	}
}

// TestNodeRandDistinctStreams guards the two defects of the old runtime
// derivation (cfg.Seed ^ v*0x9e3779b9): node 0 received the raw seed, and
// (seed, node) pairs collided. Under the shared derivation, streams must
// differ across nodes and across seeds.
func TestNodeRandDistinctStreams(t *testing.T) {
	first := func(seed int64, v int) int64 { return NodeRand(seed, v).Int63() }
	seen := make(map[int64][2]int64)
	for _, seed := range []int64{0, 1, 2, 1 << 40} {
		for v := 0; v < 64; v++ {
			d := first(seed, v)
			if prev, dup := seen[d]; dup {
				t.Fatalf("stream collision: (seed=%d,node=%d) and (seed=%d,node=%d)",
					prev[0], prev[1], seed, v)
			}
			seen[d] = [2]int64{seed, int64(v)}
		}
	}
	// Node 0 must not degenerate to the raw-seed stream (the old runtime
	// derivation XORed with v·0x9e3779b9, which vanishes at v = 0).
	for _, seed := range []int64{1, 99} {
		if first(seed, 0) == rand.New(rand.NewSource(seed)).Int63() {
			t.Errorf("seed %d: node 0 stream equals the raw seed stream", seed)
		}
	}
}
