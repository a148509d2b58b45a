// Benchmarks regenerating the paper's evaluation artifact (Table 1): one
// benchmark per algorithm row and per lower-bound row. Each benchmark
// executes full wake-up runs and reports the distributed-complexity
// measures as custom metrics:
//
//	msgs        messages per run
//	timeunits   normalized time span (rounds for synchronous algorithms)
//	advmaxbits  maximum advice length per node
//
// Run with:
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the measured values and compares them to the
// paper's bounds.
package riseandshine_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"riseandshine"
	"riseandshine/internal/core"
	"riseandshine/internal/experiment"
	"riseandshine/internal/graph"
	"riseandshine/internal/lowerbound"
	"riseandshine/internal/sim"
)

// setupOf is the Setup of g under m with identity ports and no advice.
func setupOf(g *graph.Graph, m sim.Model) *sim.Setup { return mustSetup(g, nil, m, nil, nil) }

// mustSetup is sim.NewSetup for inputs a benchmark knows to be valid; it
// panics on an error.
func mustSetup(g *graph.Graph, ports *graph.PortMap, m sim.Model, adv [][]byte, bits []int) *sim.Setup {
	s, err := sim.NewSetup(g, ports, m, adv, bits)
	if err != nil {
		panic(err)
	}
	return s
}

// benchRun executes b.N runs of one configuration through the parallel
// experiment Runner and reports metrics. Per-run seeds derive from the
// (master seed, run index) pair, so the reported complexity metrics are
// identical no matter how many workers execute the matrix.
func benchRun(b *testing.B, spec experiment.RunSpec) {
	b.Helper()
	b.ReportAllocs()
	runner := experiment.Runner{MasterSeed: 1}
	specs := make([]experiment.RunSpec, b.N)
	for i := range specs {
		specs[i] = spec
	}
	results, err := runner.Run(specs)
	if err != nil {
		b.Fatal(err)
	}
	var msgs, span, advMax float64
	for _, rr := range results {
		res := rr.Res
		if !res.AllAwake {
			b.Fatalf("only %d/%d nodes woke", res.AwakeCount, res.N)
		}
		msgs += float64(res.Messages)
		if res.Rounds > 0 {
			span += float64(res.Rounds)
		} else {
			span += float64(res.Span)
		}
		advMax = math.Max(advMax, float64(res.AdviceMaxBits))
	}
	b.ReportMetric(msgs/float64(b.N), "msgs")
	b.ReportMetric(span/float64(b.N), "timeunits")
	b.ReportMetric(advMax, "advmaxbits")
}

// sizes used across the Table 1 benches; kept moderate so the full suite
// runs in minutes.
var benchSizes = []int{256, 512, 1024}

// BenchmarkTable1 regenerates the algorithm rows of Table 1.
func BenchmarkTable1(b *testing.B) {
	b.Run("Theorem3_DFSRank", func(b *testing.B) {
		for _, n := range benchSizes {
			g := riseandshine.RandomConnected(n, 8.0/float64(n), int64(n))
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				benchRun(b, experiment.RunSpec{
					G:         g,
					Algorithm: "dfs-rank",
					Schedule:  "staggered:1,2,4,8:64",
					Delays:    "random",
				})
			})
		}
	})

	b.Run("Theorem4_FastWakeUp", func(b *testing.B) {
		for _, n := range benchSizes {
			g := riseandshine.RandomConnected(n, 64.0/float64(n), int64(n))
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				benchRun(b, experiment.RunSpec{
					G:         g,
					Algorithm: "fast-wakeup",
					Schedule:  "all",
				})
			})
		}
	})

	b.Run("Corollary1_FIP06", func(b *testing.B) {
		for _, n := range benchSizes {
			g := riseandshine.RandomConnected(n, 8.0/float64(n), int64(n))
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				benchRun(b, experiment.RunSpec{
					G:           g,
					Algorithm:   "fip06",
					Delays:      "random",
					RandomPorts: true,
				})
			})
		}
	})

	b.Run("Theorem5A_Threshold", func(b *testing.B) {
		for _, n := range benchSizes {
			g := riseandshine.RandomConnected(n, 8.0/float64(n), int64(n))
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				benchRun(b, experiment.RunSpec{
					G:           g,
					Algorithm:   "threshold",
					Delays:      "random",
					RandomPorts: true,
				})
			})
		}
	})

	b.Run("Theorem5B_CEN", func(b *testing.B) {
		for _, n := range benchSizes {
			g := riseandshine.RandomConnected(n, 8.0/float64(n), int64(n))
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				benchRun(b, experiment.RunSpec{
					G:           g,
					Algorithm:   "cen",
					Delays:      "random",
					RandomPorts: true,
				})
			})
		}
	})

	b.Run("Theorem6_Spanner", func(b *testing.B) {
		for _, k := range []int{2, 3} {
			for _, n := range benchSizes {
				g := riseandshine.RandomConnected(n, 24.0/float64(n), int64(n))
				b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
					benchRun(b, experiment.RunSpec{
						G:           g,
						Algorithm:   "spanner",
						K:           k,
						Schedule:    "random:4",
						Delays:      "random",
						RandomPorts: true,
					})
				})
			}
		}
	})

	b.Run("Corollary2_SpannerLogN", func(b *testing.B) {
		for _, n := range benchSizes {
			g := riseandshine.RandomConnected(n, 24.0/float64(n), int64(n))
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				benchRun(b, experiment.RunSpec{
					G:           g,
					Algorithm:   "spanner", // K=0 selects k=⌈log2 n⌉
					Schedule:    "random:4",
					Delays:      "random",
					RandomPorts: true,
				})
			})
		}
	})

	b.Run("Baseline_Flood", func(b *testing.B) {
		for _, n := range benchSizes {
			g := riseandshine.RandomConnected(n, 8.0/float64(n), int64(n))
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				benchRun(b, experiment.RunSpec{
					G:         g,
					Algorithm: "flood",
					Delays:    "random",
				})
			})
		}
	})
}

// BenchmarkLowerBound regenerates the lower-bound rows of Table 1.
func BenchmarkLowerBound(b *testing.B) {
	b.Run("Theorem1_AdviceTradeoff", func(b *testing.B) {
		const n = 256
		in, err := lowerbound.BuildG(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		for beta := 0; beta <= 8; beta += 4 {
			b.Run(fmt.Sprintf("beta=%d", beta), func(b *testing.B) {
				b.ReportAllocs()
				var msgs float64
				for i := 0; i < b.N; i++ {
					rep, err := lowerbound.Run(in,
						sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest},
						lowerbound.AdviceProber{},
						lowerbound.AdviceProberOracle{Inst: in, Beta: beta},
						sim.UnitDelay{}, int64(i))
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Solved {
						b.Fatalf("only %d/%d needles found", rep.NeedlesFound, len(in.W))
					}
					msgs += float64(rep.Result.Messages)
				}
				b.ReportMetric(msgs/float64(b.N), "msgs")
				b.ReportMetric(float64(n)*float64(n)/math.Exp2(float64(beta)), "lowerboundmsgs")
			})
		}
	})

	b.Run("Theorem2_TimeMessageTradeoff", func(b *testing.B) {
		for _, q := range []int{13, 23} {
			in, err := lowerbound.BuildGkProjective(q, 1)
			if err != nil {
				b.Fatal(err)
			}
			n := float64(len(in.V))
			lbCurve := math.Pow(n, 1+1/in.EffectiveK())
			for _, entry := range []struct {
				name string
				alg  sim.Algorithm
			}{
				{"broadcast", lowerbound.CenterBroadcast{}},
				{"dfs-rank", core.DFSRank{}},
			} {
				b.Run(fmt.Sprintf("q=%d/%s", q, entry.name), func(b *testing.B) {
					b.ReportAllocs()
					var msgs, span float64
					for i := 0; i < b.N; i++ {
						rep, err := lowerbound.Run(in,
							sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local},
							entry.alg, nil, sim.UnitDelay{}, int64(i))
						if err != nil {
							b.Fatal(err)
						}
						if !rep.Solved {
							b.Fatalf("only %d/%d needles found", rep.NeedlesFound, len(in.W))
						}
						msgs += float64(rep.Result.Messages)
						span += float64(rep.Result.Span)
					}
					b.ReportMetric(msgs/float64(b.N), "msgs")
					b.ReportMetric(span/float64(b.N), "timeunits")
					b.ReportMetric(lbCurve, "lowerboundmsgs")
				})
			}
		}
	})
}

// BenchmarkAblation quantifies the design choices called out in DESIGN.md:
// the random-rank discard of Theorem 3, the binary sibling heap of
// Theorem 5(B), and the root subsampling of Theorem 4.
func BenchmarkAblation(b *testing.B) {
	b.Run("DFSRanks", func(b *testing.B) {
		g := riseandshine.RandomConnected(300, 0.03, 1)
		for _, disable := range []bool{false, true} {
			name := "ranked"
			if disable {
				name = "unranked"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var msgs float64
				for i := 0; i < b.N; i++ {
					res, err := sim.RunAsync(sim.Config{
						Setup:    setupOf(g, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}),
						Schedule: riseandshine.RandomWake{Count: 32, Seed: int64(i)},
						Delays:   riseandshine.RandomDelay{Seed: int64(i)},
						Seed:     int64(i),
					}, core.DFSRank{DisableRanks: disable})
					if err != nil {
						b.Fatal(err)
					}
					msgs += float64(res.Messages)
				}
				b.ReportMetric(msgs/float64(b.N), "msgs")
			})
		}
	})

	b.Run("CENSiblingEncoding", func(b *testing.B) {
		g := riseandshine.Star(1024)
		ports := riseandshine.RandomPorts(g, 1)
		for _, unary := range []bool{false, true} {
			name := "binary-heap"
			if unary {
				name = "unary-chain"
			}
			oracle := core.CENOracle{Unary: unary}
			adv, bits, err := oracle.Advise(g, ports)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var span float64
				for i := 0; i < b.N; i++ {
					res, err := sim.RunAsync(sim.Config{
						Setup:    mustSetup(g, ports, sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, adv, bits),
						Schedule: riseandshine.WakeSingle(0),
					}, core.CEN{})
					if err != nil {
						b.Fatal(err)
					}
					span += float64(res.WakeSpan)
				}
				b.ReportMetric(span/float64(b.N), "timeunits")
			})
		}
	})

	b.Run("FastWakeUpSampling", func(b *testing.B) {
		g := riseandshine.RandomConnected(256, 0.25, 1)
		for _, tc := range []struct {
			name string
			prob float64
		}{
			{"sampled", 0},
			{"all-roots", 1},
		} {
			b.Run(tc.name, func(b *testing.B) {
				b.ReportAllocs()
				var msgs float64
				for i := 0; i < b.N; i++ {
					res, err := sim.RunSync(sim.Config{
						Setup:    setupOf(g, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}),
						Schedule: riseandshine.WakeAll{},
						Seed:     int64(i),
					}, core.FastWakeUp{RootProb: tc.prob})
					if err != nil {
						b.Fatal(err)
					}
					msgs += float64(res.Messages)
				}
				b.ReportMetric(msgs/float64(b.N), "msgs")
			})
		}
	})
}

// BenchmarkSubstrate measures the cost of the structural machinery the
// oracles and lower-bound constructions depend on.
func BenchmarkSubstrate(b *testing.B) {
	b.Run("GreedySpanner", func(b *testing.B) {
		for _, k := range []int{2, 3} {
			g := riseandshine.RandomConnected(512, 0.1, 1)
			b.Run(fmt.Sprintf("k=%d/n=512", k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := graph.GreedySpanner(g, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
	b.Run("Girth", func(b *testing.B) {
		g := graph.ProjectivePlaneIncidence(13)
		b.Run("pg13", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g.Girth() != 6 {
					b.Fatal("wrong girth")
				}
			}
		})
	})
	b.Run("BuildGk", func(b *testing.B) {
		b.Run("projective-q23", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lowerbound.BuildGkProjective(23, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("gq-q5", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lowerbound.BuildGkGQ(5, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("DegeneracyOrder", func(b *testing.B) {
		b.ReportAllocs()
		g := riseandshine.RandomConnected(2048, 0.01, 2)
		for i := 0; i < b.N; i++ {
			graph.DegeneracyOrder(g)
		}
	})
	b.Run("CENOracle", func(b *testing.B) {
		b.ReportAllocs()
		g := riseandshine.RandomConnected(2048, 0.01, 3)
		ports := riseandshine.RandomPorts(g, 4)
		oracle := core.CENOracle{}
		for i := 0; i < b.N; i++ {
			if _, _, err := oracle.Advise(g, ports); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunAsync measures raw asynchronous-engine throughput on the
// workloads used to validate the allocation-free hot path: a dense
// complete graph, a sparse random graph, a regular torus, and the
// diameter-dominated sparse extremes (path, complete binary tree). Every node
// is woken at time zero and floods, so the event count is fixed per
// topology and the benchmark isolates engine overhead (event heap,
// per-edge FIFO bookkeeping, delay derivation).
func BenchmarkRunAsync(b *testing.B) {
	for _, spec := range []string{"complete:2000", "gnp:5000:0.01", "torus:64x64", "path:20000", "binary:16383"} {
		g, err := experiment.ParseGraph(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				res, err := sim.RunAsync(sim.Config{
					Setup:    setupOf(g, sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}),
					Schedule: sim.WakeAll{},
					Delays:   sim.RandomDelay{Seed: int64(i)},
					Seed:     int64(i),
				}, core.Flood{})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkRunAsyncLarge is the 10⁶-node sparse case: flood from one
// source over binary:1000000 with delays in [0.25, 1], on a reused engine
// (warmed outside the timer) with a prebuilt Setup. The binary:1000000 row
// runs it sequentially, the shape of the benchmark module's flood-1e6
// workload on one core; the binary:1000000/shards:2 row runs it on two
// shards, as flood-1e6 does. BenchmarkRunAsync's largest sparse graph,
// binary:16383, fits in cache; here the node records (32 B per node) and
// the edge tables do not, so it measures the memory traffic of wake and
// deliver.
func BenchmarkRunAsyncLarge(b *testing.B) {
	const spec = "binary:1000000"
	g, err := experiment.ParseGraph(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	model := sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}
	setup, err := sim.NewSetup(g, nil, model, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	run := func(eng *sim.Engine, shards, i int) *sim.Result {
		res, err := eng.Run(sim.Config{
			Setup:    setup,
			Schedule: sim.WakeSet{Nodes: []int{0}},
			Delays:   sim.RandomDelay{Seed: int64(i), Min: 0.25},
			Seed:     int64(i),
			Shards:   shards,
		}, core.Flood{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for _, row := range []struct {
		name   string
		shards int
	}{{spec, 0}, {spec + "/shards:2", 2}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			eng := &sim.Engine{}
			run(eng, row.shards, -1) // grows the engine scratch outside the timer
			b.ResetTimer()
			events := 0
			for i := 0; i < b.N; i++ {
				events += run(eng, row.shards, i).Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkRunAsyncExecTrace repeats two BenchmarkRunAsync workloads with
// the flight recorder attached (wall clock, as the CLIs inject it). A
// sequential run records only the three lifecycle spans, so the delta
// against the matching BenchmarkRunAsync sub-benchmarks bounds the
// enabled-tracer overhead from above the untraced cost; the disabled-path
// cost is pinned separately (nil-check only, TestRecorderZeroAllocs).
func BenchmarkRunAsyncExecTrace(b *testing.B) {
	for _, spec := range []string{"torus:64x64", "binary:16383"} {
		g, err := experiment.ParseGraph(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			rec := riseandshine.NewExecRecorder(riseandshine.ExecTimeClock())
			events := 0
			for i := 0; i < b.N; i++ {
				res, err := sim.RunAsync(sim.Config{
					Setup:    setupOf(g, sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}),
					Schedule: sim.WakeAll{},
					Delays:   sim.RandomDelay{Seed: int64(i)},
					Seed:     int64(i),
					Tracer:   rec,
				}, core.Flood{})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkRunAsyncReuse repeats the dense BenchmarkRunAsync workload with
// every reuse lever engaged — a prebuilt Setup shared across iterations and
// a recycled engine — so allocs/op shows the steady-state per-run constant
// rather than the cold-start cost. Results are byte-identical to the
// fresh-engine path (see TestEngineReuseByteIdentical).
func BenchmarkRunAsyncReuse(b *testing.B) {
	g, err := experiment.ParseGraph("complete:2000", 1)
	if err != nil {
		b.Fatal(err)
	}
	model := sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}
	setup, err := sim.NewSetup(g, nil, model, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("complete:2000", func(b *testing.B) {
		b.ReportAllocs()
		eng := &sim.Engine{}
		events := 0
		for i := 0; i < b.N; i++ {
			res, err := eng.Run(sim.Config{
				Setup:    setup,
				Schedule: sim.WakeAll{},
				Delays:   sim.RandomDelay{Seed: int64(i)},
				Seed:     int64(i),
			}, core.Flood{})
			if err != nil {
				b.Fatal(err)
			}
			events += res.Events
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkRunAsyncMetrics repeats the dense BenchmarkRunAsync workload
// with the metrics observer attached, measuring the observation overhead.
// Recording is a few plain adds and never allocates, so the observed run
// should stay within ~1.3x of the unobserved complete:2000 baseline.
func BenchmarkRunAsyncMetrics(b *testing.B) {
	g, err := experiment.ParseGraph("complete:2000", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("complete:2000", func(b *testing.B) {
		b.ReportAllocs()
		events := 0
		for i := 0; i < b.N; i++ {
			res, err := sim.RunAsync(sim.Config{
				Setup:    setupOf(g, sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}),
				Schedule: sim.WakeAll{},
				Delays:   sim.RandomDelay{Seed: int64(i)},
				Seed:     int64(i),
				Observer: riseandshine.NewMetricsObserver(g.N()),
			}, core.Flood{})
			if err != nil {
				b.Fatal(err)
			}
			events += res.Events
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkRunSharded measures the engine's conservative parallel path
// across shard counts on one dense and two sparse 10⁵⁺-node workloads, with
// a prebuilt Setup and a reused engine per shard count. shards:1 runs the
// sequential path and is the baseline the speedup curve divides by;
// results are byte-identical at every count (TestShardedByteIdentical), so
// the deltas are pure scheduling. The delay adversary carries a 0.25
// lookahead — windows a quarter of τ wide — since zero-lookahead delays
// admit no conservative parallelism at all.
func BenchmarkRunSharded(b *testing.B) {
	for _, spec := range []string{"complete:2000", "gnp:100000:0.0001", "torus:400x400"} {
		g, err := experiment.ParseGraph(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		model := sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}
		setup, err := sim.NewSetup(g, nil, model, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards:%d", spec, p), func(b *testing.B) {
				b.ReportAllocs()
				eng := &sim.Engine{}
				events := 0
				for i := 0; i < b.N; i++ {
					res, err := eng.Run(sim.Config{
						Setup:    setup,
						Schedule: sim.WakeAll{},
						Delays:   sim.RandomDelay{Seed: int64(i), Min: 0.25},
						Seed:     int64(i),
						Shards:   p,
					}, core.Flood{})
					if err != nil {
						b.Fatal(err)
					}
					events += res.Events
				}
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkRunShardedExecTrace repeats one BenchmarkRunSharded workload
// with the flight recorder attached: per-window busy/barrier spans on
// every shard track plus merge/replay/window records on the coordinator —
// the tracer's worst-case span rate. The delta against the matching
// BenchmarkRunSharded sub-benchmarks is the enabled-tracer overhead.
func BenchmarkRunShardedExecTrace(b *testing.B) {
	const spec = "torus:400x400"
	g, err := experiment.ParseGraph(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	model := sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}
	setup, err := sim.NewSetup(g, nil, model, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		b.Run(fmt.Sprintf("%s/shards:%d", spec, p), func(b *testing.B) {
			b.ReportAllocs()
			eng := &sim.Engine{}
			rec := riseandshine.NewExecRecorder(riseandshine.ExecTimeClock())
			events := 0
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(sim.Config{
					Setup:    setup,
					Schedule: sim.WakeAll{},
					Delays:   sim.RandomDelay{Seed: int64(i), Min: 0.25},
					Seed:     int64(i),
					Shards:   p,
					Tracer:   rec,
				}, core.Flood{})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkRunner measures harness scaling: a fixed 16-run matrix executed
// at increasing worker counts. ns/op is the wall time of the full matrix;
// the complexity metrics are identical across worker counts by
// construction (seeds derive from the run index).
func BenchmarkRunner(b *testing.B) {
	specs := make([]experiment.RunSpec, 16)
	for i := range specs {
		specs[i] = experiment.RunSpec{
			Graph:       "connected:512:0.02",
			Algorithm:   "flood",
			Schedule:    "random:4",
			Delays:      "random",
			RandomPorts: true,
		}
	}
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			runner := experiment.Runner{Workers: w, MasterSeed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSetup measures per-topology Setup construction — port maps,
// CSR edge metadata and, under KT1, the flat neighbour-ID table —
// including the million-node sparse case the compact node RNG makes
// routine: setup work is O(n + m) with no per-node generator or NodeInfo
// cost, since node randomness is seeded lazily in O(1) on a node's first
// draw (BenchmarkReseedNode pins that half) and a node's NodeInfo is
// built when it wakes. The kt1/ row adds the neighbour-ID table.
func BenchmarkSetup(b *testing.B) {
	for _, row := range []struct {
		name, spec string
		kt         sim.Knowledge
	}{
		{"binary:16383", "binary:16383", sim.KT0},
		{"gnp:5000:0.01", "gnp:5000:0.01", sim.KT0},
		{"binary:1000000", "binary:1000000", sim.KT0},
		{"kt1/binary:1000000", "binary:1000000", sim.KT1},
	} {
		g, err := experiment.ParseGraph(row.spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		model := sim.Model{Knowledge: row.kt, Bandwidth: sim.Congest}
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.NewSetup(g, nil, model, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.N())/(b.Elapsed().Seconds()/float64(b.N)), "nodes/s")
		})
	}
}

// BenchmarkReseedNode measures the RNG cost the engine pays once per run
// for every node that draws, on its first ctx.Rand(): reseeding a
// recycled generator in place. With the compact PCG source this is O(1) —
// two splitmix64 evaluations — and allocation-free (the stdlib lagged-Fibonacci source it replaced ran a
// 607-word table fill here). BenchmarkNodeRand is the cold-start
// comparison: constructing the generator from scratch.
func BenchmarkReseedNode(b *testing.B) {
	r := sim.NodeRand(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ReseedNode(r, 1, i)
	}
}

// BenchmarkNodeRand measures fresh per-node generator construction, the
// cold-start comparison for BenchmarkReseedNode.
func BenchmarkNodeRand(b *testing.B) {
	b.ReportAllocs()
	var r *rand.Rand
	for i := 0; i < b.N; i++ {
		r = sim.NodeRand(1, i)
	}
	_ = r
}

// BenchmarkEngine measures raw simulator throughput (events per second)
// with the flooding algorithm, as an engine ablation.
func BenchmarkEngine(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g := riseandshine.RandomConnected(n, 8.0/float64(n), int64(n))
		b.Run(fmt.Sprintf("async/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				res, err := riseandshine.Run(riseandshine.RunConfig{
					Graph:     g,
					Algorithm: "flood",
					Schedule:  riseandshine.WakeSingle(0),
					Delays:    riseandshine.RandomDelay{Seed: int64(i)},
				})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/run")
		})
	}
}
