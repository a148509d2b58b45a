package sim

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"riseandshine/internal/graph"
)

// shardCounts is the shard matrix every sharded test sweeps: the sequential
// path (1), even and odd splits, and more shards than some test graphs
// have "natural" parallelism for.
var shardCounts = []int{1, 2, 3, 4, 8}

// quantizedLookahead gives the quantized test delayer its honest lookahead:
// values lie in {1/q, ..., 1}, so 1/q bounds every delay from below. Coarse
// grids maximize timestamp collisions, making the cross-shard vseq
// tie-break carry the full ordering burden.
type quantizedLookahead struct{ quantizedDelay }

func (d quantizedLookahead) Lookahead() float64 { return 1 / float64(d.q) }

// shardedConfigs is the mixed workload for the sharded differential suite:
// graphs that shrink and grow between runs (so reused engines exercise both
// scratch paths), every lookahead-bearing delayer flavor, and far-future,
// tie-heavy wake schedules.
func shardedConfigs(t *testing.T) []Config {
	t.Helper()
	graphs := []*graph.Graph{
		graph.RandomConnected(60, 0.1, newTestRand(1)),
		graph.Complete(12),
		graph.Torus(5, 5),
		graph.RandomConnected(90, 0.07, newTestRand(2)),
		graph.Path(25),
	}
	delayers := []Delayer{
		UnitDelay{},
		RandomDelay{Seed: 11, Min: 0.25},
		quantizedLookahead{quantizedDelay{inner: RandomDelay{Seed: 3}, q: 4}},
		BiasedDelay{Slow: map[[2]int]bool{{0, 1}: true, {3, 2}: true}, Fast: 0.2},
	}
	var cfgs []Config
	for i, g := range graphs {
		for j, d := range delayers {
			cfgs = append(cfgs, Config{
				Setup:    setupOf(g, Model{Knowledge: KT0, Bandwidth: Local}),
				Schedule: RandomWake{Count: 1 + (i+j)%4, Window: 2, Seed: int64(i*7 + j)},
				Delays:   d,
				Seed:     int64(i + j*5),
			})
		}
	}
	return append(cfgs, tieHeavyConfigs(UnitDelay{}, RandomDelay{Seed: 7, Min: 0.25})...)
}

// runTraced executes cfg on the given engine with a trace and transcript
// digests attached and returns the Result plus the raw trace bytes.
func runTraced(t *testing.T, run func(Config, Algorithm) (*Result, error), cfg Config, alg Algorithm) (*Result, string) {
	t.Helper()
	var trace bytes.Buffer
	cfg = withDigests(cfg)
	cfg.Observer = StackObservers(NewTraceObserver(&trace), cfg.Observer)
	res, err := run(cfg, alg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, trace.String()
}

// TestShardedByteIdentical is the tentpole differential: across the mixed
// workload, every shard count, and reused engines, the sharded path's
// marshaled Result (digests included) and its event trace must be
// byte-for-byte the sequential path's.
func TestShardedByteIdentical(t *testing.T) {
	engines := map[int]*Engine{}
	for _, p := range shardCounts {
		engines[p] = &Engine{}
	}
	for i, cfg := range shardedConfigs(t) {
		alg := fuzzAlg{budget: 12}
		seqRes, seqTrace := runTraced(t, RunAsync, cfg, alg)
		want := marshalDigested(t, seqRes)
		for _, p := range shardCounts {
			cfg.Shards = p
			shRes, shTrace := runTraced(t, engines[p].Run, cfg, alg)
			if got := marshalDigested(t, shRes); !bytes.Equal(want, got) {
				t.Fatalf("config %d shards %d: Result diverged\nseq:     %s\nsharded: %s", i, p, want, got)
			}
			if shTrace != seqTrace {
				t.Fatalf("config %d shards %d: trace diverged from sequential", i, p)
			}
		}
	}
}

// TestShardedActuallyShards guards the differential suite against silently
// degrading into fallback-vs-sequential: with a lookahead-bearing delayer
// the memory report must show the parallel path ran.
func TestShardedActuallyShards(t *testing.T) {
	res, err := RunAsync(Config{
		Setup:     setupOf(graph.Complete(16), Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule:  WakeSet{Nodes: []int{0}},
		Delays:    UnitDelay{},
		Shards:    4,
		MemReport: true,
	}, floodAlg{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem == nil || res.Mem.Shards != 4 {
		t.Fatalf("expected a 4-shard parallel run, got Mem=%+v", res.Mem)
	}
	if res.Mem.OutboxBytes == 0 {
		t.Error("parallel run reported no outbox scratch")
	}
}

// TestShardedFallbackWithoutLookahead: a Delayer with no positive lookahead
// admits no conservative window, so the engine must take the sequential
// path even with Shards > 1 — and still match a plain sequential run.
func TestShardedFallbackWithoutLookahead(t *testing.T) {
	cfg := Config{
		Setup:     setupOf(graph.RandomConnected(40, 0.12, newTestRand(9)), Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule:  RandomWake{Count: 2, Window: 1, Seed: 4},
		Delays:    RandomDelay{Seed: 8}, // Min = 0: lookahead 0
		Seed:      3,
		Shards:    4,
		MemReport: true,
	}
	alg := fuzzAlg{budget: 10}
	shRes, err := RunAsync(withDigests(cfg), alg)
	if err != nil {
		t.Fatal(err)
	}
	if shRes.Mem.Shards > 1 {
		t.Fatalf("zero-lookahead run used %d shards, want the sequential path", shRes.Mem.Shards)
	}
	cfg.Shards = 0
	seqRes, err := RunAsync(withDigests(cfg), alg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshalDigested(t, seqRes), marshalDigested(t, shRes); !bytes.Equal(a, b) {
		t.Fatalf("fallback diverged\nseq:      %s\nfallback: %s", a, b)
	}
}

// TestShardedEventLimitError: the event-budget abort must surface the exact
// sequential error string at every shard count, with a nil Result.
func TestShardedEventLimitError(t *testing.T) {
	cfg := Config{
		Setup:     setupOf(graph.Complete(20), Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule:  WakeAll{},
		Delays:    UnitDelay{},
		MaxEvents: 25,
	}
	_, seqErr := RunAsync(cfg, chattyAlg{})
	if seqErr == nil {
		t.Fatal("sequential run unexpectedly fit the event budget")
	}
	for _, p := range shardCounts {
		cfg.Shards = p
		res, err := RunAsync(cfg, chattyAlg{})
		if err == nil || err.Error() != seqErr.Error() {
			t.Fatalf("shards %d: error %v, want %v", p, err, seqErr)
		}
		if res != nil {
			t.Fatalf("shards %d: non-nil Result alongside the event-limit error", p)
		}
	}
}

// TestAsyncRoundSentinel pins the satellite contract: both asynchronous
// paths report the named AsyncRound sentinel — the same value — from
// every handler invocation, and the constant itself stays negative (the
// documented "Round() < 0 means asynchronous" branch).
func TestAsyncRoundSentinel(t *testing.T) {
	if AsyncRound >= 0 {
		t.Fatalf("AsyncRound = %d; synchronous rounds are ≥ 0, the sentinel must be negative", AsyncRound)
	}
	cfg := Config{
		Setup:    setupOf(graph.Complete(8), Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule: WakeSet{Nodes: []int{0}},
		Delays:   UnitDelay{},
	}
	var mu sync.Mutex // probes fire from shard goroutines
	seen := map[string]map[int]bool{}
	record := func(engine string, r int) {
		mu.Lock()
		defer mu.Unlock()
		if seen[engine] == nil {
			seen[engine] = map[int]bool{}
		}
		seen[engine][r] = true
	}
	if _, err := RunAsync(cfg, roundProbeAlg{func(r int) { record("sequential", r) }}); err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 2
	if _, err := RunAsync(cfg, roundProbeAlg{func(r int) { record("sharded", r) }}); err != nil {
		t.Fatal(err)
	}
	for path, rounds := range seen {
		if len(rounds) != 1 || !rounds[AsyncRound] {
			t.Errorf("%s path reported rounds %v, want exactly {AsyncRound}", path, rounds)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("probe ran on %d paths, want 2", len(seen))
	}
}

// roundProbeAlg reports ctx.Round() from both handler kinds. The probe
// function is called from shard goroutines in sharded runs and must be
// concurrency-safe.
type roundProbeAlg struct{ probe func(int) }

func (roundProbeAlg) Name() string { return "round-probe" }
func (a roundProbeAlg) NewMachine(NodeInfo) Program {
	return roundProbe{a.probe}
}

type roundProbe struct{ probe func(int) }

func (m roundProbe) OnWake(ctx Context) {
	m.probe(ctx.Round())
	ctx.Broadcast(pingMsg{})
}
func (m roundProbe) OnMessage(ctx Context, _ Delivery) { m.probe(ctx.Round()) }

// FuzzShardedFIFO is the cross-shard FIFO property fuzz: under quantized
// adversarial delays (maximal timestamp collisions) every shard count must
// keep per-directed-edge deliveries in non-decreasing time order and
// reproduce the sequential trace and Result byte for byte — engines reused
// across fuzz inputs.
func FuzzShardedFIFO(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(2), uint8(6))
	f.Add(int64(-9), uint8(7), uint8(1), uint8(12))
	f.Add(int64(1<<33), uint8(255), uint8(4), uint8(3))
	engines := map[int]*Engine{}
	for _, p := range shardCounts {
		engines[p] = &Engine{}
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, qRaw, budget uint8) {
		n := int(nRaw)%40 + 2
		q := int(qRaw)%8 + 1
		g := graph.RandomConnected(n, 0.15, newTestRand(seed))
		cfg := Config{
			Setup:    mustSetup(g, graph.RandomPorts(g, newTestRand(seed+1)), Model{Knowledge: KT0, Bandwidth: Local}, nil, nil),
			Schedule: RandomWake{Count: int(nRaw)%3 + 1, Window: 2, Seed: seed},
			Delays:   quantizedLookahead{quantizedDelay{inner: RandomDelay{Seed: seed}, q: q}},
			Seed:     seed,
		}
		alg := fuzzAlg{budget: int(budget)%16 + 1}
		seqRes, seqTrace := runTraced(t, RunAsync, cfg, alg)
		want := marshalDigested(t, seqRes)
		for _, p := range shardCounts {
			cfg.Shards = p
			shRes, shTrace := runTraced(t, engines[p].Run, cfg, alg)
			if shTrace != seqTrace {
				t.Fatalf("shards %d: trace diverged from sequential", p)
			}
			if got := marshalDigested(t, shRes); !bytes.Equal(want, got) {
				t.Fatalf("shards %d: Result diverged\nseq:     %s\nsharded: %s", p, want, got)
			}
			assertTraceFIFO(t, shTrace, shRes.Messages)
		}
	})
}

// assertTraceFIFO parses a trace and checks both ordering contracts: global
// replay in non-decreasing time and per-(receiver, port) FIFO delivery.
func assertTraceFIFO(t *testing.T, trace string, messages int) {
	t.Helper()
	type edge struct{ node, port int }
	lastEdge := make(map[edge]float64)
	lastAt := 0.0
	deliveries := 0
	for i, line := range strings.Split(trace, "\n") {
		if i == 0 || line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		at, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("trace line %d: bad time %q", i, fields[0])
		}
		if at < lastAt {
			t.Fatalf("event replay out of time order: %g after %g (line %d)", at, lastAt, i)
		}
		lastAt = at
		if fields[1] != "deliver" {
			continue
		}
		node, _ := strconv.Atoi(fields[2])
		port, _ := strconv.Atoi(fields[3])
		e := edge{node, port}
		if prev, ok := lastEdge[e]; ok && at < prev {
			t.Fatalf("FIFO violation on edge into node %d port %d: %g after %g", node, port, at, prev)
		}
		lastEdge[e] = at
		deliveries++
	}
	if deliveries == 0 && messages > 0 {
		t.Fatal("trace recorded no deliveries despite message traffic")
	}
}

// TestShardedSteadyStateZeroAllocs is the sharded counterpart of the
// sequential zero-alloc guard: with a prebuilt Setup and a warmed engine,
// the per-run allocation count is a constant — goroutine spawns, shard
// views, and the Result assembly — independent of graph size and message
// volume, i.e. the window machinery allocates nothing per delivered
// message.
func TestShardedSteadyStateZeroAllocs(t *testing.T) {
	measure := func(n int) (allocs float64, messages int) {
		g := graph.Complete(n)
		s, err := NewSetup(g, nil, Model{Knowledge: KT0, Bandwidth: Local}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{}
		cfg := Config{
			Setup:    s,
			Schedule: WakeSet{Nodes: []int{0}},
			Delays:   UnitDelay{},
			Seed:     1,
			Shards:   4,
		}
		run := func() *Result {
			res, err := eng.Run(cfg, floodAlg{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		messages = run().Messages // warms scratch, queues, outboxes
		return testing.AllocsPerRun(5, func() { run() }), messages
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
	// Per-run constant: the sequential engine's Result assembly plus the
	// per-run worker spawn (4 goroutines, 4 channels, 4 shard views).
	if bigAllocs > 80 {
		t.Errorf("per-run constant allocation count too high: %.0f", bigAllocs)
	}
	t.Logf("allocs/run: %.0f (at %d msgs) and %.0f (at %d msgs)", smallAllocs, smallMsgs, bigAllocs, bigMsgs)
}

// TestPartitionInvariants checks the contiguous balanced partition on a
// spread of topologies and shard counts: bounds cover [0, n) contiguously
// with every shard non-empty, NodeShard agrees with the bounds, EdgeShard
// routes to the receiver's shard, and out-of-range P clamps.
func TestPartitionInvariants(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Complete(9),
		graph.Path(31),
		graph.Torus(6, 5),
		graph.Star(40),
		graph.RandomConnected(77, 0.08, newTestRand(5)),
	}
	for gi, g := range graphs {
		s, err := NewSetup(g, nil, Model{Knowledge: KT0, Bandwidth: Local}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		for _, p := range []int{1, 2, 3, 7, n, n + 5, 1000, 0, -3} {
			pt := s.Partition(p)
			wantP := p
			if wantP > n {
				wantP = n
			}
			if wantP > 256 {
				wantP = 256
			}
			if wantP < 1 {
				wantP = 1
			}
			if pt.P != wantP {
				t.Fatalf("graph %d: Partition(%d).P = %d, want %d", gi, p, pt.P, wantP)
			}
			if len(pt.Bounds) != pt.P+1 || pt.Bounds[0] != 0 || int(pt.Bounds[pt.P]) != n {
				t.Fatalf("graph %d p %d: bounds %v do not cover [0,%d)", gi, p, pt.Bounds, n)
			}
			for i := 0; i < pt.P; i++ {
				if pt.Bounds[i] >= pt.Bounds[i+1] {
					t.Fatalf("graph %d p %d: shard %d is empty or reversed: %v", gi, p, i, pt.Bounds)
				}
				for v := pt.Bounds[i]; v < pt.Bounds[i+1]; v++ {
					if int(pt.NodeShard[v]) != i {
						t.Fatalf("graph %d p %d: NodeShard[%d] = %d, want %d", gi, p, v, pt.NodeShard[v], i)
					}
				}
			}
			for ei := range pt.EdgeShard {
				if pt.EdgeShard[ei] != pt.NodeShard[s.EdgeTo[ei]] {
					t.Fatalf("graph %d p %d: EdgeShard[%d] = %d, want receiver's shard %d",
						gi, p, ei, pt.EdgeShard[ei], pt.NodeShard[s.EdgeTo[ei]])
				}
			}
		}
	}
}

// TestShardedKeepsNegativeZeroSpan pins the end of a run whose last event
// is a −0 wake: a sequential run ends at the time of the event it pops
// last, whose sign Span keeps, so a sharded run must end at the same
// event's time, not at the largest of its cores' times. On an edgeless
// graph the wakes are the only events; the schedules put the −0 wake last
// in pop order on the same shard as the +0 one and on another, and first.
func TestShardedKeepsNegativeZeroSpan(t *testing.T) {
	g, err := graph.NewBuilder(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	negZero := Time(math.Copysign(0, -1))
	for _, sched := range []wakeList{
		{{Node: 1, At: 0}, {Node: 0, At: negZero}},
		{{Node: 7, At: 0}, {Node: 0, At: negZero}},
		{{Node: 0, At: negZero}, {Node: 7, At: 0}},
	} {
		var want []byte
		for _, p := range []int{0, 2, 3} {
			res, err := RunAsync(withDigests(Config{
				Setup:    setupOf(g, Model{Knowledge: KT0, Bandwidth: Local}),
				Schedule: sched,
				Delays:   UnitDelay{},
				Shards:   p,
			}), floodAlg{})
			if err != nil {
				t.Fatalf("schedule %v shards %d: %v", sched, p, err)
			}
			got := marshalDigested(t, res)
			if want == nil {
				want = got
			} else if !bytes.Equal(want, got) {
				t.Fatalf("schedule %v shards %d: Result diverged\nseq:     %s\nsharded: %s", sched, p, want, got)
			}
		}
	}
}

// TestShardedLookaheadFlood runs the queue's look-ahead where its table
// passes fire: the differential suites use graphs of at most 127 nodes,
// whose buckets stay below warmTablesMin keys, while a single-source flood
// on a 16383-node tree fills one-chunk buckets with hundreds of keys bound
// for sleeping nodes. Each sharded core's look-ahead then reads records,
// offsets and edge slots of the shared tables while the other cores write
// theirs, so under the race detector this checks that those reads stay in
// the core's own ranges; the Results, digests and model checks must match
// the sequential run's byte for byte.
func TestShardedLookaheadFlood(t *testing.T) {
	cfg := Config{
		Setup:    setupOf(graph.BinaryTree(16383), Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule: WakeSet{Nodes: []int{0}},
		Delays:   RandomDelay{Seed: 9, Min: 0.25},
		Seed:     4,
	}
	seq, err := RunAsync(withDigests(cfg), floodAlg{})
	if err != nil {
		t.Fatal(err)
	}
	want := marshalDigested(t, seq)
	for _, p := range []int{2, 4} {
		cfg.Shards = p
		cfg.MemReport = true
		res, err := RunAsync(withDigests(cfg), floodAlg{})
		if err != nil {
			t.Fatalf("shards %d: %v", p, err)
		}
		if res.Mem == nil || res.Mem.Shards != p {
			t.Fatalf("shards %d: expected a %d-shard parallel run, got Mem=%+v", p, p, res.Mem)
		}
		res.Mem = nil
		if got := marshalDigested(t, res); !bytes.Equal(want, got) {
			t.Fatalf("shards %d: Result diverged from sequential", p)
		}
	}
}

// TestShardedPartitionFollowsPortMap runs one graph under two port maps on
// one Engine at two shards. Every port map of a graph shares the graph's
// CSR offset table, but the partition's EdgeShard follows the map, so the
// engine's partition cache must tell the two Setups apart: a cache keyed
// on the offset table staged the second run's sends to the wrong shard.
func TestShardedPartitionFollowsPortMap(t *testing.T) {
	g := graph.Grid(20, 20)
	eng := &Engine{}
	for _, seed := range []int64{1, 2} {
		cfg := Config{
			Setup:      mustSetup(g, graph.RandomPorts(g, newTestRand(seed)), Model{Knowledge: KT0, Bandwidth: Local}, nil, nil),
			Schedule:   WakeSet{Nodes: []int{0, g.N() - 1}},
			Delays:     RandomDelay{Seed: 5, Min: 0.25},
			TrackPorts: true,
		}
		seq, err := RunAsync(withDigests(cfg), floodAlg{})
		if err != nil {
			t.Fatalf("ports %d sequential: %v", seed, err)
		}
		cfg.Shards = 2
		sharded, err := eng.Run(withDigests(cfg), floodAlg{})
		if err != nil {
			t.Fatalf("ports %d sharded: %v", seed, err)
		}
		if a, b := marshalDigested(t, seq), marshalDigested(t, sharded); !bytes.Equal(a, b) {
			t.Fatalf("ports %d: sharded run on a reused engine diverged from sequential\nseq:     %s\nsharded: %s", seed, a, b)
		}
	}
}
