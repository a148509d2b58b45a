package sim

import (
	"bytes"
	"sync/atomic"
	"testing"

	"riseandshine/internal/graph"
)

// TestReseedNodeMatchesNodeRand pins the RNG-reuse contract: reseeding a
// recycled generator yields exactly the stream a fresh NodeRand would, so
// engine reuse cannot perturb node randomness.
func TestReseedNodeMatchesNodeRand(t *testing.T) {
	recycled := NodeRand(999, 0)
	for i := 0; i < 100; i++ { // desynchronize the recycled generator
		recycled.Int63()
	}
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for _, v := range []int{0, 1, 63} {
			fresh := NodeRand(seed, v)
			ReseedNode(recycled, seed, v)
			for i := 0; i < 50; i++ {
				if a, b := fresh.Int63(), recycled.Int63(); a != b {
					t.Fatalf("seed %d node %d draw %d: fresh %d, reseeded %d", seed, v, i, a, b)
				}
			}
		}
	}
}

// TestSetupWithSeed checks the copy semantics behind cross-seed Setup
// caching: same seed returns the receiver, a new seed returns a shallow
// copy sharing the topology tables.
func TestSetupWithSeed(t *testing.T) {
	g := graph.Complete(6)
	s, err := NewSetup(g, nil, Model{Knowledge: KT0, Bandwidth: Local}, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.WithSeed(5) != s {
		t.Error("WithSeed with the same seed should return the receiver")
	}
	c := s.WithSeed(6)
	if c == s {
		t.Fatal("WithSeed with a new seed must copy")
	}
	if c.Seed != 6 || s.Seed != 5 {
		t.Errorf("seeds after WithSeed: copy %d (want 6), original %d (want 5)", c.Seed, s.Seed)
	}
	if &c.EdgeStart[0] != &s.EdgeStart[0] || &c.Infos[0] != &s.Infos[0] {
		t.Error("WithSeed should share the topology tables, not clone them")
	}
}

// tieHeavyConfigs crosses far-future wake schedules (a gap and a window far
// beyond τ) and a time-zero wake with each given delayer on three small
// topologies. Unit delays make every delivery tie at integer times, so the
// event order falls to seq alone.
func tieHeavyConfigs(delayers ...Delayer) []Config {
	graphs := []*graph.Graph{
		graph.Complete(16),
		graph.BinaryTree(127),
		graph.Torus(6, 6),
	}
	schedules := []WakeScheduler{
		WakeSet{Nodes: []int{0}},
		StaggeredWake{Sizes: []int{1, 1, 1}, Gap: 700},
		RandomWake{Count: 4, Window: 2000, Seed: 3},
	}
	var cfgs []Config
	for gi, g := range graphs {
		for si, sched := range schedules {
			for _, d := range delayers {
				cfgs = append(cfgs, Config{
					Graph:     g,
					Model:     Model{Knowledge: KT0, Bandwidth: Local},
					Adversary: Adversary{Schedule: sched, Delays: d},
					Seed:      int64(gi*10 + si),
				})
			}
		}
	}
	return cfgs
}

// reuseConfigs is a mixed workload — sizes shrink and grow between runs so
// scratch reuse exercises both the reslice-and-clear and the grow path —
// with randomized algorithms so stale RNG state would show up.
func reuseConfigs(t *testing.T) []Config {
	t.Helper()
	graphs := []*graph.Graph{
		graph.RandomConnected(60, 0.1, newTestRand(1)),
		graph.Complete(12),
		graph.RandomConnected(90, 0.07, newTestRand(2)),
		graph.Path(25),
	}
	var cfgs []Config
	for i, g := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			cfgs = append(cfgs, Config{
				Graph: g,
				Model: Model{Knowledge: KT0, Bandwidth: Local},
				Adversary: Adversary{
					Schedule: RandomWake{Count: 2 + i, Window: 3, Seed: seed},
					Delays:   RandomDelay{Seed: seed + 11},
				},
				Seed: seed,
			})
		}
	}
	return append(cfgs, tieHeavyConfigs(UnitDelay{}, RandomDelay{Seed: 7})...)
}

// TestEngineReuseByteIdentical is the engine-reuse regression guard: one
// Engine recycled across a mixed workload must produce byte-for-byte
// the Results (digests included) of a fresh engine per run.
func TestEngineReuseByteIdentical(t *testing.T) {
	eng := &Engine{}
	for i, cfg := range reuseConfigs(t) {
		alg := fuzzAlg{budget: 12}
		fresh, err := RunAsync(withDigests(cfg), alg)
		if err != nil {
			t.Fatalf("run %d fresh: %v", i, err)
		}
		reused, err := eng.Run(withDigests(cfg), alg)
		if err != nil {
			t.Fatalf("run %d reused: %v", i, err)
		}
		a, b := marshalDigested(t, fresh), marshalDigested(t, reused)
		if !bytes.Equal(a, b) {
			t.Fatalf("run %d: reused engine diverged from fresh engine\nfresh:  %s\nreused: %s", i, a, b)
		}
	}
}

// trackTracer is a minimal ExecTracer recording the track count each run
// declares and how many spans land on each track. Shard workers write only
// their own track's counter, and Run returns after every worker is done.
type trackTracer struct {
	clock atomic.Int64
	spans []int
}

func (r *trackTracer) ExecBegin(tracks int)   { r.spans = make([]int, tracks) }
func (r *trackTracer) ExecNow() int64         { return r.clock.Add(1) }
func (r *trackTracer) ExecRecord(sp ExecSpan) { r.spans[sp.Track]++ }

// TestEngineReuseAcrossShardCounts alternates one Engine between the
// sequential and sharded paths — Shards 0, 2, 0, 4, 1 per config — so each
// switch re-points the node contexts at different cores. Every Result must
// match a fresh sequential run byte for byte, and every run with a positive
// lookahead and Shards > 1 must take the sharded path: p+1 trace tracks,
// each with spans.
func TestEngineReuseAcrossShardCounts(t *testing.T) {
	eng := &Engine{}
	sharded := 0
	for i, cfg := range reuseConfigs(t) {
		alg := fuzzAlg{budget: 12}
		fresh, err := RunAsync(withDigests(cfg), alg)
		if err != nil {
			t.Fatalf("config %d fresh: %v", i, err)
		}
		want := marshalDigested(t, fresh)
		lh, _ := cfg.Adversary.Delays.(Lookahead)
		for _, p := range []int{0, 2, 0, 4, 1} {
			tr := &trackTracer{}
			cfg.Shards = p
			cfg.Tracer = tr
			res, err := eng.Run(withDigests(cfg), alg)
			if err != nil {
				t.Fatalf("config %d shards %d: %v", i, p, err)
			}
			if got := marshalDigested(t, res); !bytes.Equal(want, got) {
				t.Fatalf("config %d shards %d: reused engine diverged from fresh sequential run\nfresh:  %s\nreused: %s", i, p, want, got)
			}
			wantTracks := 1
			if p > 1 && lh != nil && lh.Lookahead() > 0 {
				wantTracks = p + 1
				sharded++
			}
			if len(tr.spans) != wantTracks {
				t.Fatalf("config %d shards %d: %d trace tracks, want %d", i, p, len(tr.spans), wantTracks)
			}
			for track, n := range tr.spans {
				if n == 0 {
					t.Fatalf("config %d shards %d: no spans on track %d", i, p, track)
				}
			}
		}
	}
	if sharded == 0 {
		t.Fatal("no run took the sharded path")
	}
}

// TestSetupReuseByteIdentical checks the other reuse axis: one Setup built
// once per topology and reseeded per run must match per-run NewSetup.
func TestSetupReuseByteIdentical(t *testing.T) {
	setups := map[*graph.Graph]*Setup{}
	eng := &Engine{}
	for i, cfg := range reuseConfigs(t) {
		alg := fuzzAlg{budget: 12}
		fresh, err := RunAsync(withDigests(cfg), alg)
		if err != nil {
			t.Fatalf("run %d fresh: %v", i, err)
		}
		s := setups[cfg.Graph]
		if s == nil {
			// Deliberately built with a seed no run uses: WithSeed must cover.
			if s, err = NewSetup(cfg.Graph, nil, cfg.Model, -12345, nil, nil); err != nil {
				t.Fatalf("run %d setup: %v", i, err)
			}
			setups[cfg.Graph] = s
		}
		cfg.Setup = s
		reused, err := eng.Run(withDigests(cfg), alg)
		if err != nil {
			t.Fatalf("run %d with shared setup: %v", i, err)
		}
		a, b := marshalDigested(t, fresh), marshalDigested(t, reused)
		if !bytes.Equal(a, b) {
			t.Fatalf("run %d: shared-Setup run diverged\nfresh:  %s\nshared: %s", i, a, b)
		}
	}
}

// TestEngineRNGWrappersAliasState pins the SoA wiring behind the compact
// node RNG: a wrapper bound on a node's first ctx.Rand() must draw from
// rngs[v] of the *current* backing array — after reset() grows the tables,
// and after a reused engine runs again on tables it already bound. A stale
// wrapper pointing into a discarded rngs array would still produce
// plausible random numbers — runs would silently stop depending on
// (seed, v) — so this checks aliasing directly: seeding rngs[v] by hand
// must make rands[v] reproduce the NodeRand reference stream exactly.
func TestEngineRNGWrappersAliasState(t *testing.T) {
	eng := &Engine{}
	run := func(n int) {
		t.Helper()
		cfg := Config{
			Graph:     graph.Complete(n),
			Model:     Model{Knowledge: KT0, Bandwidth: Local},
			Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0}}},
			Seed:      1,
		}
		if _, err := eng.Run(cfg, randFloodAlg{}); err != nil {
			t.Fatal(err)
		}
		r := &eng.run
		if len(r.rngs) < n || len(r.rands) < n {
			t.Fatalf("n=%d: RNG tables hold %d generators and %d wrappers", n, len(r.rngs), len(r.rands))
		}
		for _, v := range []int{0, 7, n - 1} {
			r.rngs[v].Seed(deriveSeed(123, streamNodeRand, uint64(v)))
			want := NodeRand(123, v)
			for i := 0; i < 16; i++ {
				if got, w := r.rands[v].Uint64(), want.Uint64(); got != w {
					t.Fatalf("n=%d node %d draw %d: wrapper yields %016x, NodeRand reference %016x — rands[%d] does not alias rngs[%d]",
						n, v, i, got, w, v, v)
				}
			}
		}
	}
	run(8)
	run(32) // grows the RNG tables: every wrapper must rebind into the new array
	run(32) // reuses them: the first Rand() of the run binds again
}

// randFloodAlg is floodAlg with one draw from the node's generator on
// wake, so every node binds and seeds its RNG during the run.
type randFloodAlg struct{}

func (randFloodAlg) Name() string                { return "rand-flood-test" }
func (randFloodAlg) NewMachine(NodeInfo) Program { return randFloodMachine{} }

type randFloodMachine struct{}

func (randFloodMachine) OnWake(ctx Context) {
	ctx.Rand().Uint64()
	ctx.Broadcast(pingMsg{})
}
func (randFloodMachine) OnMessage(Context, Delivery) {}

// lateDrawAlg draws from a node's generator for the first time on the
// node's k-th delivery, k = 1 + v mod 4, and records the draws by node.
// Each node writes only its own entry, so the draws may be recorded from
// several shards at once.
type lateDrawAlg struct {
	g     *graph.Graph
	draws [][]uint64
}

func (lateDrawAlg) Name() string { return "late-draw-test" }
func (a lateDrawAlg) NewMachine(info NodeInfo) Program {
	v := a.g.IndexOf(info.ID)
	return &lateDrawMachine{k: 1 + v%4, out: &a.draws[v]}
}

type lateDrawMachine struct {
	k, got int
	out    *[]uint64
}

func (m *lateDrawMachine) OnWake(ctx Context) { ctx.Broadcast(pingMsg{}) }
func (m *lateDrawMachine) OnMessage(ctx Context, _ Delivery) {
	m.got++
	if m.got != m.k {
		return
	}
	for i := 0; i < 4; i++ {
		*m.out = append(*m.out, ctx.Rand().Uint64())
	}
}

// TestFirstUseRandMatchesNodeRand pins the first-use seeding contract: a
// node that first calls ctx.Rand() on its k-th delivery, with k varying by
// node, draws exactly NodeRand(seed, v)'s stream — sequentially and on two
// shards, and again on a reused engine whose tables were bound by the
// previous run.
func TestFirstUseRandMatchesNodeRand(t *testing.T) {
	g := graph.Complete(12)
	eng := &Engine{}
	for _, shards := range []int{1, 2, 1} {
		for _, seed := range []int64{3, 4} {
			alg := lateDrawAlg{g: g, draws: make([][]uint64, g.N())}
			cfg := Config{
				Graph:     g,
				Model:     Model{Knowledge: KT0, Bandwidth: Local},
				Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0, 5}}, Delays: RandomDelay{Seed: seed, Min: 0.25}},
				Seed:      seed,
				Shards:    shards,
			}
			if _, err := eng.Run(cfg, alg); err != nil {
				t.Fatal(err)
			}
			for v, got := range alg.draws {
				want := NodeRand(seed, v)
				if len(got) != 4 {
					t.Fatalf("shards=%d seed=%d node %d: %d draws, want 4", shards, seed, v, len(got))
				}
				for i, x := range got {
					if w := want.Uint64(); x != w {
						t.Fatalf("shards=%d seed=%d node %d draw %d: %016x, NodeRand reference %016x", shards, seed, v, i, x, w)
					}
				}
			}
		}
	}
}

// floodAlg broadcasts once on wake and stays silent on messages; machines
// and messages are zero-size values, so the algorithm itself contributes no
// allocations — it isolates the engine's per-message cost for the
// zero-alloc guard below.
type floodAlg struct{}

func (floodAlg) Name() string                { return "flood-test" }
func (floodAlg) NewMachine(NodeInfo) Program { return floodMachine{} }

type floodMachine struct{}

type pingMsg struct{}

func (pingMsg) Bits() int { return 1 }

func (floodMachine) OnWake(ctx Context)          { ctx.Broadcast(pingMsg{}) }
func (floodMachine) OnMessage(Context, Delivery) {}

// TestAsyncSteadyStateZeroAllocs pins the headline property of the event
// core: with a prebuilt Setup and a warmed engine, a run's allocation
// *count* is a small constant — independent of the graph size and of the
// number of delivered messages (see checkAllocsFlat). randFloodAlg repeats
// the check with a draw per node: binding and seeding a generator on a
// node's first ctx.Rand() must not allocate either.
func TestAsyncSteadyStateZeroAllocs(t *testing.T) {
	for _, alg := range []Algorithm{floodAlg{}, randFloodAlg{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			checkAllocsFlat(t, func(eng *Engine, cfg Config) (*Result, error) { return eng.Run(cfg, alg) })
		})
	}
}

// syncFloodAlg is floodAlg for synchronous runs: a zero-size machine that
// broadcasts on wake and ignores its inbox.
type syncFloodAlg struct{}

func (syncFloodAlg) Name() string                    { return "sync-flood-test" }
func (syncFloodAlg) NewMachine(NodeInfo) SyncProgram { return syncFloodMachine{} }

type syncFloodMachine struct{}

func (syncFloodMachine) OnWake(ctx Context)          { ctx.Broadcast(pingMsg{}) }
func (syncFloodMachine) OnRound(Context, []Delivery) {}

// TestSyncSteadyStateZeroAllocs is the same property for synchronous
// runs, which share the event core: the schedule copy, the round's
// arrivals, the grouped inbox and its offsets are reused engine scratch,
// so a round allocates nothing per delivered message either.
func TestSyncSteadyStateZeroAllocs(t *testing.T) {
	checkAllocsFlat(t, func(eng *Engine, cfg Config) (*Result, error) { return eng.RunSync(cfg, syncFloodAlg{}) })
}

// checkAllocsFlat runs one node's flood through run on a reused Engine
// with a prebuilt Setup, on two complete graphs whose message counts
// differ by an order of magnitude, and requires equal allocation counts
// per warmed run: zero allocations per delivered message in steady state.
func checkAllocsFlat(t *testing.T, run func(*Engine, Config) (*Result, error)) {
	t.Helper()
	measure := func(n int) (allocs float64, messages int) {
		g := graph.Complete(n)
		s, err := NewSetup(g, nil, Model{Knowledge: KT0, Bandwidth: Local}, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{}
		cfg := Config{
			Graph:     g,
			Model:     Model{Knowledge: KT0, Bandwidth: Local},
			Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0}}},
			Seed:      1,
			Setup:     s,
		}
		once := func() *Result {
			res, err := run(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		messages = once().Messages // also warms the engine scratch
		return testing.AllocsPerRun(5, func() { once() }), messages
	}
	smallAllocs, smallMsgs := measure(12)
	bigAllocs, bigMsgs := measure(40)
	if bigMsgs < 8*smallMsgs {
		t.Fatalf("workloads not separated: %d vs %d messages", smallMsgs, bigMsgs)
	}
	if bigAllocs != smallAllocs {
		t.Errorf("allocation count scales with traffic: %.0f allocs at %d msgs, %.0f allocs at %d msgs (want equal)",
			smallAllocs, smallMsgs, bigAllocs, bigMsgs)
	}
	// The absolute constant is the per-run Result assembly; keep it honest
	// so a regression that adds per-run waste also fails loudly.
	if bigAllocs > 40 {
		t.Errorf("per-run constant allocation count too high: %.0f", bigAllocs)
	}
	t.Logf("allocs/run: %.0f (at %d msgs) and %.0f (at %d msgs)", smallAllocs, smallMsgs, bigAllocs, bigMsgs)
}
