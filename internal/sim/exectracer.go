package sim

// This file defines the engine side of the execution-tracing contract: the
// spans the engines emit and the ExecTracer interface they emit them
// through. The flight recorder itself — bounded ring buffers, stall
// accounting, Chrome trace export — lives in internal/exectrace, which
// cannot be imported from here (exectrace reuses internal/metrics
// histograms, and metrics implements sim.Observer), so the engines see
// only this minimal interface behind a nil check.
//
// Clock discipline: the engines never read wall time (the detrand
// analyzer forbids it in every deterministic package). ExecNow returns
// readings of a clock the *driver* injected into the tracer; the engines
// treat the values as opaque monotone instants. Timestamps flow only into
// the tracer — never into a Result, digest, trace, or any other
// deterministic output — so a traced run stays byte-identical to an
// untraced one.

// ExecSpanKind classifies one execution span. Lifecycle kinds (setup,
// run, finish, cell) describe whole phases of a run; window kinds (busy,
// barrier, merge, replay, window) describe the sharded engine's
// per-window structure.
type ExecSpanKind uint8

const (
	// ExecSetup covers config validation and Setup resolution.
	ExecSetup ExecSpanKind = iota + 1
	// ExecRun covers the event loop (or round loop) of a run.
	ExecRun
	// ExecFinish covers result assembly and the observer's OnFinish.
	ExecFinish
	// ExecBusy covers one shard draining one window (sharded engine;
	// Events carries the number of events the shard processed).
	ExecBusy
	// ExecBarrier covers time a shard (or the coordinator, on track 0)
	// spent waiting at a window barrier.
	ExecBarrier
	// ExecMerge covers the coordinator's k-way outbox merge at a barrier.
	ExecMerge
	// ExecReplay covers the coordinator replaying deferred observer
	// records in sequential order.
	ExecReplay
	// ExecWindow is an instant (Start == End) marking a window boundary;
	// Events carries the events processed across all shards that window.
	ExecWindow
	// ExecCell covers one full experiment cell (parse, prepare, run) as
	// recorded by experiment.Runner.
	ExecCell
)

// String names the kind for trace exports and reports.
func (k ExecSpanKind) String() string {
	switch k {
	case ExecSetup:
		return "setup"
	case ExecRun:
		return "run"
	case ExecFinish:
		return "finish"
	case ExecBusy:
		return "busy"
	case ExecBarrier:
		return "barrier"
	case ExecMerge:
		return "merge"
	case ExecReplay:
		return "replay"
	case ExecWindow:
		return "window"
	case ExecCell:
		return "cell"
	}
	return "unknown"
}

// ExecSpan is one recorded interval of engine execution. Track 0 is the
// engine (sequential runs) or the coordinator (sharded runs); sharded
// runs put shard i on track i+1. Start and End are readings of the
// tracer's injected clock, in nanoseconds; an instant has Start == End.
type ExecSpan struct {
	Track  int32
	Kind   ExecSpanKind
	Window int64 // window index for window kinds; 0 otherwise
	Events int64 // events processed (ExecRun, ExecBusy, ExecWindow)
	Start  int64
	End    int64
}

// ExecTracer receives the engines' execution spans; implemented by
// exectrace.Recorder and installed via Config.Tracer (or the façade's
// RunConfig.ExecTrace). The engines call it behind a nil check only, so a
// run without a tracer pays one pointer comparison per phase and nothing
// per event.
//
// Concurrency: the sharded engine calls ExecRecord from one goroutine per
// track (workers own their shard's track, the coordinator owns track 0)
// and calls ExecNow from all of them, so ExecNow must be safe for
// concurrent use and per-track state must not be shared across tracks.
// ExecBegin is called once per run, before any worker starts.
type ExecTracer interface {
	// ExecNow returns the injected clock's current reading in nanoseconds.
	//
	//wakeup:noalloc
	ExecNow() int64
	// ExecRecord records one span on its track.
	//
	//wakeup:noalloc
	ExecRecord(ExecSpan)
	// ExecBegin declares the number of tracks the coming run will record
	// on (shards + 1); track 0 always exists. It may allocate.
	ExecBegin(tracks int)
}

// execPhase records the run phase of the given kind on track 0, from
// start to now, with the events it processed, and returns now. Without a
// tracer it records nothing and returns 0.
func execPhase(tr ExecTracer, kind ExecSpanKind, start int64, events int) int64 {
	if tr == nil {
		return 0
	}
	now := tr.ExecNow()
	tr.ExecRecord(ExecSpan{Track: 0, Kind: kind, Events: int64(events), Start: start, End: now})
	return now
}
