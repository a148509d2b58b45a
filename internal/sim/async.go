package sim

import (
	"fmt"
	"io"

	"riseandshine/internal/graph"
)

// DefaultMaxEvents caps the number of engine events processed in one run
// unless overridden, guarding against non-terminating algorithms.
const DefaultMaxEvents = 20_000_000

// Config describes one execution of the asynchronous engine.
type Config struct {
	// Graph is the network topology (required).
	Graph *graph.Graph
	// Ports is the KT0 port mapping; nil selects the identity mapping.
	Ports *graph.PortMap
	// Model selects knowledge and bandwidth assumptions.
	Model Model
	// Adversary supplies the wake schedule (required) and delays
	// (UnitDelay when nil).
	Adversary Adversary
	// Seed drives all node-private randomness.
	Seed int64
	// Advice and AdviceBits carry the oracle's output; both nil when the
	// scheme uses no advice. AdviceBits[v] is the exact bit length charged
	// to node v.
	Advice     [][]byte
	AdviceBits []int
	// Setup, when non-nil, supplies a prebuilt harness Setup so sweeps can
	// amortize the per-topology work (NodeInfo tables, CSR edge metadata)
	// across runs. It must have been built from the same Graph, Ports,
	// Model, and Advice as this Config; the run seed is taken from Seed
	// (the Setup is reseeded via WithSeed), so one cached Setup serves an
	// entire seed matrix.
	Setup *Setup
	// MaxEvents overrides DefaultMaxEvents when positive.
	MaxEvents int
	// Shards, when > 1, partitions the run: the graph is split into that
	// many contiguous node ranges, each driven by its own event loop,
	// synchronized at lookahead-quantized windows with results
	// byte-identical to the sequential path at every count. Values ≤ 1, a
	// Delayer without a positive Lookahead, or a partition that collapses
	// to one shard run sequentially.
	Shards int
	// TrackPorts enables per-node distinct-port accounting (Result.PortsUsed).
	TrackPorts bool
	// RecordDigests installs a DigestObserver: per-node transcript digests
	// land in Result.TranscriptDigests. Shorthand for stacking
	// NewDigestObserver(false) onto Observer.
	RecordDigests bool
	// StrictCongest makes the run fail if any message exceeds the CONGEST
	// bit limit; otherwise violations are only counted.
	StrictCongest bool
	// MemReport publishes the run's peak scratch footprint by subsystem
	// into Result.Mem. Off by default so Results stay comparable across
	// shard counts and engine reuse.
	MemReport bool
	// Trace installs a TraceObserver writing one CSV line per engine event
	// (wake or delivery) to the writer; see the tracer documentation in
	// trace.go. Shorthand for stacking NewTraceObserver(w) onto Observer.
	Trace io.Writer
	// Observer, when non-nil, receives the engine's event stream; stack
	// several with StackObservers. The hot path stays allocation-free when
	// no observer is installed.
	Observer Observer
	// Tracer, when non-nil, receives execution spans (setup/run/finish for
	// sequential runs; per-window busy/barrier/merge/replay spans for
	// sharded runs). Timestamps come from the tracer's injected
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

// AsyncEngine is a reusable instance of the asynchronous engine. The zero
// value is ready to use: Run allocates the scratch state — event queues,
// node records, RNG tables, per-edge FIFO clamp and sequence arrays — on
// first use and thereafter resets it in place rather than reallocating, so
// repeated runs (a seed sweep over a fixed topology) allocate nothing per
// delivered message in steady state. Combined with Config.Setup the
// per-run cost drops to the Result being assembled.
//
// A sequential run is one engineCore spanning the whole node range; a
// sharded run (Config.Shards) drives one core per partition (see
// runSharded). Both paths share one runShared scratch, and one engine may
// alternate between them.
//
// An AsyncEngine is not safe for concurrent use and must not be copied
// after its first Run (each core's Context holds a pointer to its core);
// give each sweep worker its own.
type AsyncEngine struct {
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
// engine; use an explicit AsyncEngine to reuse scratch state across runs.
func RunAsync(cfg Config, alg Algorithm) (*Result, error) {
	return new(AsyncEngine).Run(cfg, alg)
}

// setupForRun validates the config and resolves the run's Setup, delayer,
// and wake schedule.
func setupForRun(cfg Config, alg Algorithm) (*Setup, Delayer, []Wakeup, error) {
	if cfg.Graph == nil {
		return nil, nil, nil, fmt.Errorf("sim: Config.Graph is required")
	}
	if alg == nil {
		return nil, nil, nil, fmt.Errorf("sim: algorithm is required")
	}
	if cfg.Adversary.Schedule == nil {
		return nil, nil, nil, fmt.Errorf("sim: Config.Adversary.Schedule is required")
	}
	s := cfg.Setup
	if s == nil {
		var err error
		s, err = NewSetup(cfg.Graph, cfg.Ports, cfg.Model, cfg.Seed, cfg.Advice, cfg.AdviceBits)
		if err != nil {
			return nil, nil, nil, err
		}
	} else {
		if s.Graph != cfg.Graph {
			return nil, nil, nil, fmt.Errorf("sim: Config.Setup was built for a different graph")
		}
		if s.Model != cfg.Model {
			return nil, nil, nil, fmt.Errorf("sim: Config.Setup was built for model %v, config wants %v", s.Model, cfg.Model)
		}
		if cfg.Ports != nil && s.Ports != cfg.Ports {
			return nil, nil, nil, fmt.Errorf("sim: Config.Setup was built for a different port map")
		}
		s = s.WithSeed(cfg.Seed)
	}
	delays := cfg.Adversary.Delays
	if delays == nil {
		delays = UnitDelay{}
	}
	wakeups := cfg.Adversary.Schedule.Wakeups(s.Graph)
	if err := validateSchedule(s.Graph, wakeups); err != nil {
		return nil, nil, nil, err
	}
	return s, delays, wakeups, nil
}

// maxEventsFor resolves the run's event budget.
func maxEventsFor(cfg Config) int {
	if cfg.MaxEvents > 0 {
		return cfg.MaxEvents
	}
	return DefaultMaxEvents
}

// Run executes one configuration, resetting — not reallocating — the
// scratch state left by any previous run. The run is partitioned across
// cores (see runSharded) when cfg.Shards > 1, the Delayer has a positive
// Lookahead, and the partition has more than one shard; otherwise it runs
// on one sequential core. Both paths return byte-identical Results.
func (e *AsyncEngine) Run(cfg Config, alg Algorithm) (*Result, error) {
	var t0 int64
	if cfg.Tracer != nil {
		t0 = cfg.Tracer.ExecNow()
	}
	s, delays, wakeups, err := setupForRun(cfg, alg)
	if err != nil {
		return nil, err
	}
	n := s.Graph.N()
	part, w := e.shardPlan(cfg.Shards, s, delays)

	e.run.alg = alg
	e.run.g = s.Graph
	e.run.s = s
	e.run.delays = delays
	e.run.seed = cfg.Seed
	e.run.part = part
	e.run.reset(n, int(s.EdgeStart[n]))
	if part != nil {
		return e.runSharded(cfg, wakeups, w, t0)
	}
	return e.runSequential(cfg, wakeups, t0)
}

// runSequential drives the whole node range on cores[0].
func (e *AsyncEngine) runSequential(cfg Config, wakeups []Wakeup, t0 int64) (*Result, error) {
	tr := cfg.Tracer
	if tr != nil {
		tr.ExecBegin(1)
	}
	r := &e.run
	n := r.g.N()
	if len(e.cores) == 0 {
		e.cores = make([]engineCore, 1)
	}
	c := &e.cores[0]
	c.reset(r, 0, 0, n)
	c.acct = NewAccounting(r.s, r.alg.Name(), cfg.TrackPorts)
	c.obs = cfg.observer()
	c.staging = false
	c.recOn = false

	// Wake events enter through push, which maintains the queue invariant
	// on its own — there is no separate "heapify" step
	// (TestWakePushesKeepHeapOrdered pins it). Every wake time is ≥ 0, at or
	// above the empty queue's last key.
	for _, w := range wakeups {
		c.push(event{at: w.At, kind: evWake, node: w.Node})
	}

	maxEvents := maxEventsFor(cfg)
	res := c.acct.Result()
	var t1 int64
	if tr != nil {
		t1 = tr.ExecNow()
		tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecSetup, Start: t0, End: t1})
	}
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

	var t2 int64
	if tr != nil {
		t2 = tr.ExecNow()
		tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecRun, Events: int64(res.Events), Start: t1, End: t2})
	}

	c.acct.Finish(c.now, r.tally)
	if cfg.MemReport {
		res.Mem = e.memReport(1)
	}
	if c.obs != nil {
		if err := c.obs.OnFinish(res); err != nil {
			return res, fmt.Errorf("sim: %w", err)
		}
	}
	if cfg.StrictCongest {
		if err := c.acct.CongestError(); err != nil {
			return res, err
		}
	}
	if tr != nil {
		tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecFinish, Start: t2, End: tr.ExecNow()})
	}
	return res, nil
}

// eventLimitErr is the event-budget error, shared by both paths so they
// are indistinguishable to callers.
func eventLimitErr(maxEvents int, alg Algorithm) error {
	return fmt.Errorf("sim: event limit %d exceeded (algorithm %q may not terminate)", maxEvents, alg.Name())
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

// observer assembles the run's observer stack from the Trace and
// RecordDigests shorthands plus the explicit Observer slot.
func (cfg Config) observer() Observer {
	var trace, digest Observer
	if cfg.Trace != nil {
		trace = NewTraceObserver(cfg.Trace)
	}
	if cfg.RecordDigests {
		digest = NewDigestObserver(false)
	}
	return StackObservers(trace, digest, cfg.Observer)
}
