package experiment

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"riseandshine"
	"riseandshine/internal/exectrace"
	"riseandshine/internal/graph"
	"riseandshine/internal/metrics"
	"riseandshine/internal/sim"
)

// RunSpec is one cell of an experiment matrix: a fully instantiated
// graph/schedule/delay specification plus the algorithm to execute. The
// seed is not part of the spec — the Runner derives it from the master
// seed and the run's position in the matrix.
type RunSpec struct {
	// Graph is the graph spec (ParseGraph syntax); ignored when G is set.
	Graph string
	// G optionally supplies a pre-built topology. Graphs are immutable, so
	// one instance may be shared by many concurrent runs.
	G *graph.Graph
	// Algorithm is the registry name; K its spanner parameter (0 = default).
	Algorithm string
	K         int
	// Schedule is the wake schedule spec (ParseSchedule syntax); empty
	// selects "single".
	Schedule string
	// Delays is the delay spec (ParseDelays syntax); empty selects "unit".
	Delays string
	// RandomPorts selects the adversarial random port assignment (seeded by
	// the run seed); otherwise identity ports are used.
	RandomPorts bool
	// RecordDigests publishes per-node transcript digests into
	// Res.TranscriptDigests, so sweeps can compare executions bit-for-bit
	// across worker counts and hosts.
	RecordDigests bool
	// Metrics records the run into a fresh metrics observer and publishes
	// its snapshot plus the frontier time series on the RunResult.
	Metrics bool
	// MemReport populates Res.Mem with the run's per-subsystem scratch
	// footprint. Diagnostic only — leave off when Results are compared
	// byte-for-byte.
	MemReport bool
	// Shards, when > 1, partitions each cell's run into that many shards.
	// Results are byte-identical to the sequential path, so the field
	// never changes a sweep's output, only how the core budget is spent:
	// prefer sweep-level parallelism (Workers) for many small runs and
	// shards for a few huge ones.
	Shards int
	// ExecTrace records each run into its own flight recorder, published
	// on RunResult.Exec. The recorder's clock comes from the Runner's
	// injected Now (a deterministic counter clock when Now is nil), and
	// its output — like Duration — is diagnostic wall-clock state excluded
	// from every deterministic output.
	ExecTrace bool
}

// RunResult pairs one completed run with the seed it used and the graph it
// ran on.
type RunResult struct {
	Seed  int64
	Graph *graph.Graph
	Res   *sim.Result

	// Duration is the run's wall-clock time as read from the Runner's
	// injected clock; zero without one. Wall-clock time lives in the
	// driver and is excluded from every deterministic output.
	Duration time.Duration
	// Metrics and Frontier carry the run's metric snapshot and frontier
	// time series when the spec enables Metrics.
	Metrics  *metrics.Snapshot
	Frontier []metrics.FrontierPoint
	// Exec carries the run's flight recorder when the spec enables
	// ExecTrace; read it with Stall or WriteChromeTrace.
	Exec *exectrace.Recorder
}

// Runner executes a slice of RunSpecs over a bounded worker pool.
//
// Determinism: run i always uses seed sim.RunSeed(MasterSeed, i), and
// results are returned in input order, so the output is byte-identical for
// any worker count — a parallel sweep aggregates to exactly the bytes the
// sequential sweep produces.
type Runner struct {
	// Workers bounds the pool; <= 0 selects runtime.NumCPU().
	Workers int
	// MasterSeed is the root of all per-run seed derivation.
	MasterSeed int64
	// Progress, when non-nil, is invoked after each run completes with the
	// number of completed runs, the total, and the run's result (e.g. to
	// merge its metrics snapshot into a live one). Calls are
	// serialized, but completion order depends on scheduling — drivers may
	// surface it to a human (a progress line on stderr, a /metrics
	// endpoint) and must not derive deterministic output from it.
	Progress func(done, total int, r RunResult)
	// Now, when non-nil, supplies the wall-clock timestamps behind
	// RunResult.Duration and the flight-recorder clock of ExecTrace
	// cells. The clock is injected by the driver so the deterministic
	// packages never read time themselves (see the detrand analyzer); nil
	// leaves durations zero and gives recorders a counter clock.
	Now func() time.Time
}

// execClock derives the flight-recorder clock from the injected Now; nil
// (no injected clock) lets each recorder fall back to its deterministic
// counter clock.
func (r Runner) execClock() exectrace.Clock {
	if r.Now == nil {
		return nil
	}
	return func() int64 { return r.Now().UnixNano() }
}

// prepKey identifies one cacheable configuration: same topology instance,
// algorithm, and spanner parameter. Seeds are deliberately absent — advice
// and Setup are seed-independent (the seed enters at Prepared.Run), which
// is exactly what makes cross-seed sharing sound.
type prepKey struct {
	g   *graph.Graph
	alg string
	k   int
}

// prepCache shares riseandshine.Prepared values (oracle advice, CSR edge
// metadata, node infos) across the runs of a sweep. Only cells with a
// pre-built topology and identity ports are cacheable: a string graph spec
// or RandomPorts makes the topology or port map a function of the run seed.
type prepCache struct {
	mu sync.Mutex
	m  map[prepKey]*riseandshine.Prepared
}

func (c *prepCache) get(spec RunSpec) (*riseandshine.Prepared, error) {
	if spec.G == nil || spec.RandomPorts {
		return nil, nil
	}
	key := prepKey{g: spec.G, alg: spec.Algorithm, k: spec.K}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.m[key]; ok {
		return p, nil
	}
	p, err := riseandshine.Prepare(riseandshine.RunConfig{
		Graph:     spec.G,
		Algorithm: spec.Algorithm,
		Options:   riseandshine.Options{K: spec.K},
	})
	if err != nil {
		return nil, err
	}
	if c.m == nil {
		c.m = make(map[prepKey]*riseandshine.Prepared)
	}
	c.m[key] = p
	return p, nil
}

// Run executes all specs and returns their results in input order. The
// first error (by input position, not completion order) aborts the result;
// remaining in-flight runs are still drained.
//
// Setup work (algorithm lookup, oracle advice, CSR edge metadata) is shared
// across runs of the same pre-built topology, and each worker keeps one
// reusable engine whose buffers are reset, not reallocated, between runs.
// Neither form of reuse is observable in the output: results stay
// byte-identical for any worker count.
func (r Runner) Run(specs []RunSpec) ([]RunResult, error) {
	results := make([]RunResult, len(specs))
	errs := make([]error, len(specs))
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	var mu sync.Mutex
	done := 0
	cache := &prepCache{}
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker scratch: an engine is single-run state, so one per
			// goroutine is both safe and maximally reusable, for sequential,
			// sharded and synchronous cells alike.
			eng := &riseandshine.Engine{}
			for i := range indices {
				var start time.Time
				if r.Now != nil {
					start = r.Now()
				}
				results[i], errs[i] = runOne(specs[i], sim.RunSeed(r.MasterSeed, i), cache, eng, r.execClock())
				if r.Now != nil {
					results[i].Duration = r.Now().Sub(start)
				}
				if r.Progress != nil {
					mu.Lock()
					done++
					r.Progress(done, len(specs), results[i])
					mu.Unlock()
				}
			}
		}()
	}
	for i := range specs {
		indices <- i
	}
	close(indices)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: run %d (%s on %s): %w", i, specs[i].Algorithm, graphName(specs[i]), err)
		}
	}
	return results, nil
}

// graphName names spec's graph in an error: its quoted spec string, or the
// size of a pre-built graph given without one.
func graphName(spec RunSpec) string {
	if spec.Graph == "" && spec.G != nil {
		return fmt.Sprintf("n=%d m=%d", spec.G.N(), spec.G.M())
	}
	return strconv.Quote(spec.Graph)
}

// runOne executes a single cell; it is also the sequential path (a Runner
// with Workers == 1 calls exactly this, in order). cache and eng may be
// nil: they are pure reuse vehicles and never change the result; clock
// (nil = counter clock) only feeds the flight recorder of ExecTrace cells.
func runOne(spec RunSpec, seed int64, cache *prepCache, eng *riseandshine.Engine, clock exectrace.Clock) (RunResult, error) {
	// The recorder is created before graph parsing so the cell span below
	// covers the whole cell: parse, prepare, and run.
	var rec *exectrace.Recorder
	var cell0 int64
	if spec.ExecTrace {
		rec = exectrace.New(clock)
		cell0 = rec.ExecNow()
	}
	g := spec.G
	if g == nil {
		var err error
		if g, err = ParseGraph(spec.Graph, seed); err != nil {
			return RunResult{}, err
		}
	}
	schedSpec := spec.Schedule
	if schedSpec == "" {
		schedSpec = "single"
	}
	sched, err := ParseSchedule(schedSpec, seed)
	if err != nil {
		return RunResult{}, err
	}
	delays, err := ParseDelays(spec.Delays, seed)
	if err != nil {
		return RunResult{}, err
	}
	var ports *graph.PortMap
	if spec.RandomPorts {
		ports = riseandshine.RandomPorts(g, seed)
	}
	// Per-run observers: each run records into its own digests and
	// metrics, so workers never contend and the published results are
	// independent of scheduling.
	var stack []sim.Observer
	if spec.RecordDigests {
		stack = append(stack, sim.NewDigestObserver(false))
	}
	var mobs *metrics.Observer
	if spec.Metrics {
		mobs = metrics.NewObserver(g.N())
		stack = append(stack, mobs)
	}
	cfg := riseandshine.RunConfig{
		Graph:     g,
		Algorithm: spec.Algorithm,
		Options:   riseandshine.Options{K: spec.K},
		Schedule:  sched,
		Delays:    delays,
		Ports:     ports,
		Seed:      seed,
		Observer:  sim.StackObservers(stack...),
		Engine:    eng,
		MemReport: spec.MemReport,
		Shards:    spec.Shards,
		ExecTrace: rec,
	}
	var res *sim.Result
	var prep *riseandshine.Prepared
	if cache != nil {
		if prep, err = cache.get(spec); err != nil {
			return RunResult{}, err
		}
	}
	if prep != nil {
		res, err = prep.Run(cfg)
	} else {
		res, err = riseandshine.Run(cfg)
	}
	if err != nil {
		return RunResult{}, err
	}
	rr := RunResult{Seed: seed, Graph: g, Res: res, Exec: rec}
	if rec != nil {
		// The cell span lands after the engine's ExecBegin reset, so it
		// survives on track 0 alongside the engine's lifecycle spans.
		rec.ExecRecord(sim.ExecSpan{Track: 0, Kind: sim.ExecCell, Start: cell0, End: rec.ExecNow()})
	}
	if mobs != nil {
		snap := mobs.Snapshot()
		rr.Metrics = &snap
		rr.Frontier = mobs.Frontier()
	}
	return rr, nil
}
