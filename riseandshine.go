// Package riseandshine is a simulation library for the adversarial wake-up
// problem in distributed networks, reproducing "Rise and Shine
// Efficiently! The Complexity of Adversarial Wake-up in Asynchronous
// Networks" (Robinson & Tan, PODC 2025).
//
// An adversary wakes an arbitrary subset of the nodes of a message-passing
// network at arbitrary times; the algorithm must wake everyone else
// quickly while sending few messages. The package exposes:
//
//   - graph generators and structural metrics (including the awake
//     distance ρ_awk);
//   - one deterministic execution engine for asynchronous and synchronous
//     runs, with KT0/KT1 knowledge and CONGEST/LOCAL bandwidth models,
//     oblivious delay/wake adversaries, and exact message/time/advice
//     accounting;
//   - every algorithm from the paper (flooding, ranked DFS, FastWakeUp,
//     and the four advising schemes) behind a registry keyed by name;
//   - the lower-bound graph families of Theorems 1 and 2 together with
//     matching upper-bound strategies, for reproducing the paper's
//     tradeoffs.
//
// Quick start:
//
//	g := riseandshine.Grid(16, 16)
//	res, err := riseandshine.Run(riseandshine.RunConfig{
//		Graph:     g,
//		Algorithm: "cen",
//		AwakeSet:  []int{0},
//		Seed:      1,
//	})
//
// See examples/ for complete programs.
package riseandshine

import (
	"io"
	"math/rand"
	"time"

	"riseandshine/internal/exectrace"
	"riseandshine/internal/graph"
	"riseandshine/internal/metrics"
	"riseandshine/internal/sim"
)

// Re-exported fundamental types. The implementation lives in internal
// packages; these aliases are the supported public surface.
type (
	// Graph is an immutable simple undirected network topology.
	Graph = graph.Graph
	// NodeID identifies a node to the distributed algorithms.
	NodeID = graph.NodeID
	// PortMap is a KT0 port numbering (bijections port ↔ neighbor).
	PortMap = graph.PortMap
	// Model selects the knowledge (KT0/KT1) and bandwidth
	// (CONGEST/LOCAL) assumptions.
	Model = sim.Model
	// Result carries the metrics of one execution.
	Result = sim.Result
	// Time is simulated time in units of the maximum message delay τ.
	Time = sim.Time
	// WakeScheduler decides which nodes the adversary wakes, and when.
	WakeScheduler = sim.WakeScheduler
	// Delayer assigns adversarial message delays in (0, 1].
	Delayer = sim.Delayer
	// GraphBuilder accumulates edges for a custom topology.
	GraphBuilder = graph.Builder
	// Observer receives an engine's event stream (wakes, deliveries,
	// sends, finish); install via RunConfig.Observer.
	Observer = sim.Observer
	// TraceObserver writes the CSV event trace.
	TraceObserver = sim.TraceObserver
	// DigestObserver folds deliveries into per-node transcript digests.
	DigestObserver = sim.DigestObserver
	// CausalObserver reconstructs the causal DAG of an execution and its
	// critical path (the longest causal chain ending at the last wake).
	CausalObserver = sim.CausalObserver
	// CausalReport is the critical path and causal-depth decomposition of
	// one execution.
	CausalReport = sim.CausalReport
	// CausalStep is one event on a reported critical path.
	CausalStep = sim.CausalStep
	// MetricsRegistry holds named counters, gauges, and histograms with
	// Prometheus text and deterministic JSON expositions.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = metrics.Snapshot
	// MetricsObserver records an engine's event stream into a registry,
	// including a frontier time series; install a fresh one per run via
	// RunConfig.Observer.
	MetricsObserver = metrics.Observer
	// FrontierPoint is one sample of the wake-up frontier.
	FrontierPoint = metrics.FrontierPoint
	// Engine is reusable engine scratch (event queues, node records,
	// machine tables, per-node RNGs, FIFO clocks): each run resets the
	// buffers in place instead of allocating fresh ones, with
	// byte-identical results. One Engine serves sequential, sharded
	// (RunConfig.Shards) and synchronous runs alike. Pass one per sweep
	// worker via RunConfig.Engine; the zero value is ready to use. Not safe
	// for concurrent use.
	Engine = sim.Engine
	// MemReport is the per-subsystem scratch footprint of one run (see
	// RunConfig.MemReport).
	MemReport = sim.MemReport
	// ExecRecorder is the engine flight recorder: bounded per-track span
	// rings around an injected monotonic clock, with a Chrome trace-event
	// export (WriteChromeTrace, Perfetto-loadable) and an aggregate stall
	// report (Stall). Install via RunConfig.ExecTrace.
	ExecRecorder = exectrace.Recorder
	// ExecStallReport aggregates one traced run: per-track
	// busy/barrier/merge totals, window count, imbalance ratio, and the
	// events-per-window histogram.
	ExecStallReport = exectrace.StallReport
	// ExecClock is the nanosecond monotonic clock an ExecRecorder reads;
	// see ExecTimeClock and ExecCounterClock.
	ExecClock = exectrace.Clock
)

// AsyncRound is the sentinel Context.Round returns in asynchronous runs
// (sequential and sharded alike); synchronous rounds are ≥ 0, so
// Round() < 0 is the portable "am I asynchronous" branch.
const AsyncRound = sim.AsyncRound

// FormatBytes renders a byte count with a binary unit suffix (B, KiB, MiB,
// GiB) for memory-report output.
var FormatBytes = sim.FormatBytes

// Observer constructors and composition (see internal/sim for semantics).
var (
	NewTraceObserver  = sim.NewTraceObserver
	NewDigestObserver = sim.NewDigestObserver
	NewCausalObserver = sim.NewCausalObserver
	StackObservers    = sim.StackObservers
	// CombineDigests folds per-node transcript digests into one value.
	CombineDigests = sim.CombineDigests
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = metrics.NewRegistry
	// NewMetricsObserver registers the sim_* metrics on a registry and
	// returns an observer for one run.
	NewMetricsObserver = metrics.NewObserver
)

// NewExecRecorder returns a flight recorder around the injected clock
// (nil selects the deterministic ExecCounterClock).
var NewExecRecorder = exectrace.New

// ExecCounterClock returns a deterministic ExecClock — each reading is
// the next integer — for reproducible traces in tests.
var ExecCounterClock = exectrace.CounterClock

// ExecTimeClock returns a monotonic wall clock started now, for real
// profiling. The wall-time read lives here in the façade, outside the
// deterministic packages, on purpose: exectrace itself never touches the
// clock — it only reads whatever Clock was injected.
func ExecTimeClock() ExecClock {
	start := time.Now()
	return func() int64 { return int64(time.Since(start)) }
}

// NewGraphBuilder returns a builder for a custom graph on n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// ReadGraph parses a graph in the edge-list text format (see
// WriteGraph): "n <count>" header, "u v" edge lines, optional
// "id <node> <id>" lines, '#' comments.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph serializes g in the edge-list text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// WriteGraphDOT renders g in Graphviz DOT format with an optional
// highlighted node subset (e.g. the awake set).
func WriteGraphDOT(w io.Writer, g *Graph, highlight []int) error {
	return graph.WriteDOT(w, g, highlight)
}

// Knowledge and bandwidth constants.
const (
	KT0     = sim.KT0
	KT1     = sim.KT1
	Congest = sim.Congest
	Local   = sim.Local
)

// Graph generators (see internal/graph for details).
var (
	Path              = graph.Path
	Cycle             = graph.Cycle
	Star              = graph.Star
	Complete          = graph.Complete
	CompleteBipartite = graph.CompleteBipartite
	Grid              = graph.Grid
	Torus             = graph.Torus
	Hypercube         = graph.Hypercube
	Lollipop          = graph.Lollipop
	Barbell           = graph.Barbell
	BinaryTree        = graph.BinaryTree
	Caterpillar       = graph.Caterpillar
	Wheel             = graph.Wheel
	KAryTree          = graph.KAryTree
	DeBruijn          = graph.DeBruijn
)

// RandomRegular returns a simple d-regular random graph (n·d even, d < n).
func RandomRegular(n, d int, seed int64) *Graph {
	return graph.RandomRegular(n, d, rand.New(rand.NewSource(seed)))
}

// PreferentialAttachment returns a Barabási–Albert graph with m edges per
// arriving node — a connected, hub-dominated workload.
func PreferentialAttachment(n, m int, seed int64) *Graph {
	return graph.PreferentialAttachment(n, m, rand.New(rand.NewSource(seed)))
}

// RandomTree returns a uniformly random labeled tree on n nodes.
func RandomTree(n int, seed int64) *Graph {
	return graph.RandomTree(n, rand.New(rand.NewSource(seed)))
}

// RandomGNP returns an Erdős–Rényi G(n, p) graph (possibly disconnected).
func RandomGNP(n int, p float64, seed int64) *Graph {
	return graph.RandomGNP(n, p, rand.New(rand.NewSource(seed)))
}

// RandomConnected returns a connected random graph: a uniform spanning
// tree plus independent extra edges with probability p.
func RandomConnected(n int, p float64, seed int64) *Graph {
	return graph.RandomConnected(n, p, rand.New(rand.NewSource(seed)))
}

// RandomPorts draws an independent uniformly random port mapping for
// every node — the KT0 adversary's port assignment.
func RandomPorts(g *Graph, seed int64) *PortMap {
	return graph.RandomPorts(g, rand.New(rand.NewSource(seed)))
}

// Adversary wake schedules.
var (
	// WakeSingle wakes one node at time zero.
	WakeSingle = sim.WakeSingle
)

// WakeSet wakes a fixed set of nodes at a common time.
type WakeSet = sim.WakeSet

// WakeAll wakes every node at time zero.
type WakeAll = sim.WakeAll

// RandomWake wakes a random node subset at random times in a window.
type RandomWake = sim.RandomWake

// StaggeredWake wakes disjoint batches at increasing times (the
// adversarial pattern analyzed in Theorem 3).
type StaggeredWake = sim.StaggeredWake

// DominatingWake wakes a greedy dominating set (ρ_awk ≤ 1).
type DominatingWake = sim.DominatingWake

// Message delay strategies.
type (
	// UnitDelay delivers after exactly one time unit.
	UnitDelay = sim.UnitDelay
	// RandomDelay assigns seeded pseudo-random delays in (Min, 1].
	RandomDelay = sim.RandomDelay
)
