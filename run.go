package riseandshine

import (
	"fmt"
	"math"

	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// RunConfig describes one execution through the façade.
type RunConfig struct {
	// Graph is the network (required, connected).
	Graph *Graph
	// Algorithm is a registry name; see Algorithms().
	Algorithm string
	// Options carries per-algorithm parameters.
	Options Options

	// Schedule is the adversary's wake schedule; nil wakes node 0 at time
	// zero.
	Schedule WakeScheduler
	// Delays selects the delay adversary for asynchronous runs; nil means
	// unit delays. Synchronous algorithms ignore it: every delay is one
	// round.
	Delays Delayer

	// Ports overrides the KT0 port mapping; nil selects identity ports.
	// Use RandomPorts for the adversarial assignment.
	Ports *PortMap
	// Seed drives all node randomness.
	Seed int64
	// Observer, when non-nil, receives the engine's event stream: stack
	// NewTraceObserver, NewDigestObserver, NewMetricsObserver and others
	// with StackObservers. An observer holds the state of one run, so give
	// every Run a fresh one. Runs without any observer keep the engine's
	// allocation-free hot path.
	Observer Observer
	// Engine, when non-nil, supplies reusable engine scratch for
	// sequential, sharded and synchronous runs alike: the run resets the
	// engine's buffers in place instead of allocating fresh ones. An Engine
	// is not safe for concurrent use — give each sweep worker its own.
	Engine *Engine
	// Shards, when > 1, runs the asynchronous engine sharded: the graph is
	// partitioned into that many contiguous node ranges, each driven by its
	// own event loop on its own goroutine, synchronized at windows of the
	// delay adversary's lookahead. Results are byte-identical to the
	// sequential path at every shard count; a Delayer without a positive
	// Lookahead (e.g. RandomDelay with Min 0) runs sequentially.
	// Synchronous algorithms ignore it.
	Shards int
	// MemReport populates Result.Mem with the run's per-subsystem scratch
	// footprint. Diagnostic: leave off when comparing Results byte-for-byte
	// across shard counts or engine reuse.
	MemReport bool
	// ExecTrace, when non-nil, records the run's execution timeline into
	// the flight recorder: setup/run/finish phases on every run, plus
	// per-window busy/barrier/merge/replay spans per shard on sharded
	// runs. Read it back with ExecRecorder.Stall (aggregate stall report)
	// or ExecRecorder.WriteChromeTrace (Perfetto-loadable JSON) after Run
	// returns. The recorder's timestamps come from its injected clock and
	// never enter the Result, so traced runs stay byte-identical to
	// untraced ones.
	ExecTrace *ExecRecorder
}

// Prepared caches the seed-independent work of one configuration — the
// resolved algorithm and the validated harness Setup, with its oracle's
// advice and CSR edge metadata — so a sweep can replay the configuration
// across a whole seed matrix paying the setup cost once. Per-run inputs
// (seed, schedule, delays, observers) still come from the RunConfig given
// to Run.
//
// A Prepared is immutable after Prepare and safe for concurrent Run calls,
// as long as each concurrent caller passes its own RunConfig.Engine (or
// none). The underlying graph and port map must not be mutated (e.g. via
// SwapPorts) while the Prepared is in use.
type Prepared struct {
	algorithm string
	options   Options
	info      AlgorithmInfo
	setup     *sim.Setup
}

// Prepare resolves and validates the seed-independent part of cfg: the
// algorithm lookup, the port mapping, the oracle run (advice is a
// deterministic function of graph and ports), and the harness Setup. The
// per-run fields of cfg (seed, schedule, delays, observers) are ignored
// here and supplied to Prepared.Run instead.
func Prepare(cfg RunConfig) (*Prepared, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("riseandshine: RunConfig.Graph is required")
	}
	// Prepared.Run compares Options with ==, which a NaN never passes.
	if math.IsNaN(cfg.Options.RootProb) {
		return nil, fmt.Errorf("riseandshine: Options.RootProb is NaN")
	}
	info, err := Lookup(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	ports := cfg.Ports
	if ports == nil {
		ports = graph.IdentityPorts(cfg.Graph)
	} else if !ports.Fits(cfg.Graph) {
		// Checked here as well as in sim.NewSetup: the oracle reads the
		// port map first.
		return nil, fmt.Errorf("riseandshine: RunConfig.Ports was built for a different graph")
	}
	var adviceBytes [][]byte
	var adviceBits []int
	if info.UsesAdvice {
		oracle := info.newOracle(cfg.Graph.N(), cfg.Options)
		adviceBytes, adviceBits, err = oracle.Advise(cfg.Graph, ports)
		if err != nil {
			return nil, fmt.Errorf("riseandshine: oracle %s: %w", oracle.Name(), err)
		}
	}
	setup, err := sim.NewSetup(cfg.Graph, ports, info.Model, adviceBytes, adviceBits)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		algorithm: cfg.Algorithm,
		options:   cfg.Options,
		info:      info,
		setup:     setup,
	}, nil
}

// Run executes the prepared configuration once. The identifying fields of
// cfg (Graph, Algorithm, Options, Ports) must match the Prepare call;
// everything per-run — Seed, Schedule, Delays, observers, Engine — is
// taken from cfg as in the package-level Run.
func (p *Prepared) Run(cfg RunConfig) (*Result, error) {
	if cfg.Graph != p.setup.Graph {
		return nil, fmt.Errorf("riseandshine: Prepared was built for a different graph")
	}
	if cfg.Algorithm != p.algorithm {
		return nil, fmt.Errorf("riseandshine: Prepared was built for algorithm %q, config wants %q", p.algorithm, cfg.Algorithm)
	}
	if cfg.Options != p.options {
		return nil, fmt.Errorf("riseandshine: Prepared was built with different Options")
	}
	if cfg.Ports != nil && cfg.Ports != p.setup.Ports {
		return nil, fmt.Errorf("riseandshine: Prepared was built for a different port map")
	}

	schedule := cfg.Schedule
	if schedule == nil {
		schedule = WakeSingle(0)
	}

	// The explicit nil check keeps a nil *ExecRecorder from becoming a
	// non-nil ExecTracer interface value in the engine configs.
	var tracer sim.ExecTracer
	if cfg.ExecTrace != nil {
		tracer = cfg.ExecTrace
	}

	simCfg := sim.Config{
		Setup:     p.setup,
		Schedule:  schedule,
		Delays:    cfg.Delays,
		Seed:      cfg.Seed,
		Observer:  cfg.Observer,
		MemReport: cfg.MemReport,
		Shards:    cfg.Shards,
		Tracer:    tracer,
	}
	eng := cfg.Engine
	if eng == nil {
		eng = new(Engine)
	}
	if p.info.Synchronous {
		return eng.RunSync(simCfg, p.info.newSync(cfg.Options))
	}
	return eng.Run(simCfg, p.info.newAsync(cfg.Options))
}

// Run executes the named algorithm, running its oracle first if the scheme
// uses advice, and selecting the synchronous or asynchronous engine as the
// algorithm requires. Sweeps that replay one configuration across many
// seeds should Prepare once and call Prepared.Run per seed instead.
func Run(cfg RunConfig) (*Result, error) {
	p, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(cfg)
}
