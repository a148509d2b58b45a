package sim

import (
	"fmt"

	"riseandshine/internal/graph"
)

// DefaultMaxEvents caps the number of engine events processed in one run
// unless overridden, guarding against non-terminating algorithms.
const DefaultMaxEvents = 20_000_000

// maxWake bounds the times of both timing models: from 2⁵³ on, adjacent
// Times lie more than τ = 1 apart, so neither a delay in (0, τ] nor a
// whole round is representable. Wakes at or above it fail at set-up, and
// a run whose last event reaches it fails at the end.
const maxWake Time = 1 << 53

// Config describes one execution of the engine, in either timing model.
type Config struct {
	// Graph is the network topology (required).
	Graph *graph.Graph
	// Ports is the KT0 port mapping; nil selects the identity mapping.
	Ports *graph.PortMap
	// Model selects knowledge and bandwidth assumptions.
	Model Model
	// Adversary supplies the wake schedule (required) and delays
	// (UnitDelay when nil). Synchronous runs fix every delay at one round
	// and ignore Delays.
	Adversary Adversary
	// Seed drives all node-private randomness.
	Seed int64
	// Advice and AdviceBits carry the oracle's output; both nil when the
	// scheme uses no advice. AdviceBits[v] is the exact bit length charged
	// to node v.
	Advice     [][]byte
	AdviceBits []int
	// Setup, when non-nil, supplies a prebuilt harness Setup so sweeps can
	// amortize the per-topology work (port map, CSR edge metadata, KT1
	// neighbour IDs) across runs. It must have been built from the same
	// Graph, Ports and Model as this Config, and it replaces Advice and
	// AdviceBits. A Setup holds no seed, so one cached Setup serves an
	// entire seed matrix.
	Setup *Setup
	// MaxEvents overrides DefaultMaxEvents when positive. In a synchronous
	// run it bounds the rounds after the first wake instead, which
	// DefaultMaxRounds caps when it is unset.
	MaxEvents int
	// Shards, when > 1, partitions the run: the graph is split into that
	// many contiguous node ranges, each driven by its own event loop,
	// synchronized at lookahead-quantized windows with results
	// byte-identical to the sequential path at every count. Values ≤ 1, a
	// Delayer without a positive Lookahead, or a partition that collapses
	// to one shard run sequentially. Synchronous runs ignore it.
	Shards int
	// TrackPorts enables per-node distinct-port accounting (Result.PortsUsed).
	TrackPorts bool
	// MemReport publishes the run's peak scratch footprint by subsystem
	// into Result.Mem. Off by default so Results stay comparable across
	// shard counts and engine reuse.
	MemReport bool
	// Observer, when non-nil, receives the engine's event stream; stack
	// several with StackObservers. An observer holds the state of one run,
	// so give every run a fresh one. The hot path stays allocation-free
	// when no observer is installed.
	Observer Observer
	// Tracer, when non-nil, receives execution spans (setup/run/finish for
	// sequential and synchronous runs; per-window busy/barrier/merge/replay
	// spans for sharded runs). Timestamps come from the tracer's injected
	// clock and never enter the Result, so a traced run stays
	// byte-identical to an untraced one. Nil costs one pointer comparison
	// per phase — never per event.
	Tracer ExecTracer
}

const (
	evWake = iota + 1
	evDeliver
)

type event struct {
	at   Time
	seq  int64
	kind int
	node int
	d    Delivery
}

// Engine is a reusable instance of the simulation engine, which runs both
// timing models: Run executes an asynchronous Algorithm and RunSync a
// synchronous one. The zero value is ready to use: a run allocates the
// scratch state — event queues, node records, RNG tables, per-edge FIFO
// clamp and sequence arrays, the synchronous machine table and inboxes —
// on first use and thereafter resets it in place rather than reallocating,
// so repeated runs (a seed sweep over a fixed topology) allocate nothing
// per delivered message in steady state. Combined with Config.Setup the
// per-run cost drops to the Result being assembled.
//
// A sequential or synchronous run is one engineCore spanning the whole
// node range; a sharded run (Config.Shards) drives one core per partition
// (see runSharded). All share one runShared scratch, and one engine may
// alternate between them.
//
// An Engine is not safe for concurrent use and must not be copied after
// its first run (each core's Context holds a pointer to its core); give
// each sweep worker its own.
type Engine struct {
	run runShared
	// cores[0] drives sequential runs; a sharded run uses one core per
	// shard, reallocating the slice when the shard count changes.
	cores   []engineCore
	inboxes [][]event
	cursors []int // k-way merge cursors, reused across barriers

	// Partition cache: the partition depends only on the topology (the CSR
	// arrays) and P, so it is keyed by the stable backing array of a cached
	// Setup and survives whole seed sweeps.
	partKey *int32
	partN   int
	partP   int
	part    *Partition
}

// RunAsync executes alg on the configured network until the event queues
// are exhausted and returns the collected metrics. It runs on a fresh
// engine; use an explicit Engine to reuse scratch state across runs.
func RunAsync(cfg Config, alg Algorithm) (*Result, error) {
	return new(Engine).Run(cfg, alg)
}

// setupForRun checks what every run needs — a graph, an algorithm and a
// wake schedule — and validates the schedule's wake-ups, whose times must
// lie below maxWake. Only then does it resolve the run's Setup, so a bad
// schedule fails before anything is allocated: cfg.Setup is checked
// against cfg, or a new Setup is built. alg is the run's Algorithm or
// SyncAlgorithm.
func setupForRun(cfg Config, alg interface{ Name() string }) (*Setup, []Wakeup, error) {
	if cfg.Graph == nil {
		return nil, nil, fmt.Errorf("sim: Graph is required")
	}
	if alg == nil {
		return nil, nil, fmt.Errorf("sim: algorithm is required")
	}
	if cfg.Adversary.Schedule == nil {
		return nil, nil, fmt.Errorf("sim: wake Schedule is required")
	}
	wakeups := cfg.Adversary.Schedule.Wakeups(cfg.Graph)
	if err := validateSchedule(cfg.Graph, wakeups, maxWake); err != nil {
		return nil, nil, err
	}
	if cfg.Setup == nil {
		s, err := NewSetup(cfg.Graph, cfg.Ports, cfg.Model, cfg.Advice, cfg.AdviceBits)
		if err != nil {
			return nil, nil, err
		}
		return s, wakeups, nil
	}
	s := cfg.Setup
	if s.Graph != cfg.Graph {
		return nil, nil, fmt.Errorf("sim: Setup was built for a different graph")
	}
	if s.Model != cfg.Model {
		return nil, nil, fmt.Errorf("sim: Setup was built for model %v, config wants %v", s.Model, cfg.Model)
	}
	if cfg.Ports != nil && s.Ports != cfg.Ports {
		return nil, nil, fmt.Errorf("sim: Setup was built for a different port map")
	}
	return s, wakeups, nil
}

// finishRun is the last step of every run, in this order: the observer's
// OnFinish, its error wrapped as "sim: …" and returned beside the Result;
// the ExecFinish span from t2.
func finishRun(acct *Accounting, obs Observer, tr ExecTracer, t2 int64) (*Result, error) {
	res := acct.Result()
	if obs != nil {
		if err := obs.OnFinish(res); err != nil {
			return res, fmt.Errorf("sim: %w", err)
		}
	}
	execPhase(tr, ExecFinish, t2, 0)
	return res, nil
}

// maxEventsFor resolves the run's budget: cfg.MaxEvents when positive,
// else def (DefaultMaxEvents, or DefaultMaxRounds in a synchronous run).
func maxEventsFor(cfg Config, def int) int {
	if cfg.MaxEvents > 0 {
		return cfg.MaxEvents
	}
	return def
}

// Run executes one asynchronous configuration, resetting — not
// reallocating — the scratch state left by any previous run. The run is
// partitioned across cores (see runSharded) when cfg.Shards > 1, the
// Delayer has a positive Lookahead, and the partition has more than one
// shard; otherwise it runs on one sequential core. Both paths return
// byte-identical Results.
func (e *Engine) Run(cfg Config, alg Algorithm) (*Result, error) {
	var t0 int64
	if cfg.Tracer != nil {
		t0 = cfg.Tracer.ExecNow()
	}
	s, wakeups, err := setupForRun(cfg, alg)
	if err != nil {
		return nil, err
	}
	delays := cfg.Adversary.Delays
	if delays == nil {
		delays = UnitDelay{}
	}
	part, w := e.shardPlan(cfg.Shards, s, delays)
	e.run.alg, e.run.syncAlg = alg, nil
	e.run.start(s, delays, cfg.Seed, part)
	if part != nil {
		return e.runSharded(cfg, wakeups, w, t0)
	}
	return e.runSequential(cfg, wakeups, t0)
}

// sequentialCore readies cores[0] to drive the whole node range of the
// run the shared state was started for, with cfg's observer and tracer
// and a fresh Accounting for the algorithm named algName.
func (e *Engine) sequentialCore(cfg Config, algName string) *engineCore {
	if cfg.Tracer != nil {
		cfg.Tracer.ExecBegin(1)
	}
	r := &e.run
	if len(e.cores) == 0 {
		e.cores = make([]engineCore, 1)
	}
	c := &e.cores[0]
	c.reset(r, 0, 0, r.g.N())
	c.acct = NewAccounting(r.s, algName, cfg.TrackPorts)
	c.obs = cfg.Observer
	c.staging = false
	c.recOn = false
	return c
}

// runSequential drives the whole node range on cores[0].
func (e *Engine) runSequential(cfg Config, wakeups []Wakeup, t0 int64) (*Result, error) {
	r := &e.run
	c := e.sequentialCore(cfg, r.alg.Name())

	// Wake events enter through push, which maintains the queue invariant
	// on its own — there is no separate "heapify" step
	// (TestWakePushesKeepHeapOrdered pins it). Every wake time is ≥ 0, at or
	// above the empty queue's last key.
	for _, w := range wakeups {
		c.push(event{at: w.At, kind: evWake, node: w.Node})
	}

	maxEvents := maxEventsFor(cfg, DefaultMaxEvents)
	res := c.acct.Result()
	t1 := execPhase(cfg.Tracer, ExecSetup, t0, 0)
	for {
		ev, _, ok := c.queue.popBefore(infTime)
		if !ok {
			break
		}
		if res.Events >= maxEvents {
			return nil, eventLimitErr(maxEvents, r.alg)
		}
		c.now = ev.at
		res.Events++
		switch ev.kind {
		case evWake:
			c.wake(ev.node, true)
		case evDeliver:
			c.deliver(ev.node, ev.d)
		}
		if c.err != nil {
			return nil, c.err
		}
	}

	if c.now >= maxWake {
		return nil, timeLimitErr(c.now)
	}
	t2 := execPhase(cfg.Tracer, ExecRun, t1, res.Events)
	c.acct.finish(c.now, r.nodes)
	if cfg.MemReport {
		res.Mem = e.memReport(1)
	}
	return finishRun(c.acct, c.obs, cfg.Tracer, t2)
}

// eventLimitErr is the event-budget error, shared by both paths so they
// are indistinguishable to callers.
func eventLimitErr(maxEvents int, alg Algorithm) error {
	return fmt.Errorf("sim: event limit %d exceeded (algorithm %q may not terminate)", maxEvents, alg.Name())
}

// timeLimitErr is the error of an asynchronous run whose last event, at
// end, reached maxWake; both paths return it.
func timeLimitErr(end Time) error {
	return fmt.Errorf("sim: event time %v is at or above the engine's limit %v", end, maxWake)
}

// growClear returns s with length n and every element zeroed, reusing the
// backing array when capacity allows — the reset-not-reallocate primitive
// behind the engine scratch.
//
//wakeup:noalloc
func growClear[E any](s []E, n int) []E {
	if cap(s) < n {
		//lint:noalloc-ok grows to the high-water mark once, then every later reset reuses the array
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}
