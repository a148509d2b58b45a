// Package exectrace is the engine flight recorder: a low-overhead
// per-track span recorder implementing sim.ExecTracer, with two export
// forms — Chrome trace-event JSON loadable in Perfetto (chrome.go) and an
// aggregate StallReport (report.go).
//
// Clock injection. The package never reads wall time itself (it is a
// deterministic package under the detrand analyzer): every Recorder is
// constructed around an injected Clock, and all span timestamps are
// readings of that clock. Drivers outside the deterministic boundary (the
// CLIs, the façade) inject a monotonic wall clock; tests inject
// CounterClock for reproducible traces. Timestamps never flow into
// results, digests, or metrics output, so a traced run is byte-identical
// to an untraced one.
//
// Bounds. Spans land in per-track ring buffers of fixed capacity (spans
// beyond it overwrite the oldest; TrackStall.Dropped counts them), while
// the stall totals — busy/barrier/merge/replay nanoseconds, events,
// windows, the events-per-window histogram — are plain accumulators
// updated at record time, so a StallReport is exact even after the rings
// wrap.
//
// Concurrency. Each track is written by exactly one goroutine (the
// sharded engine's contract: workers own their shard's track, the
// coordinator owns track 0), so per-track state needs no atomics; the
// injected clock is the only state shared across tracks and must be safe
// for concurrent use. The events-per-window histogram belongs to track 0,
// which records the window instants. Reading (Stall, WriteChromeTrace) is
// only valid after the traced run returned.
package exectrace

import (
	"sync/atomic"

	"riseandshine/internal/metrics"
	"riseandshine/internal/sim"
)

// Clock returns the current reading of a monotonic clock in nanoseconds.
// It must be safe for concurrent use. The zero of the clock is arbitrary:
// only differences and relative order are ever interpreted.
type Clock func() int64

// CounterClock returns a deterministic Clock: each call returns the next
// integer, starting at 1. Concurrent callers still see unique, strictly
// increasing readings (per-goroutine order only — which is all the
// recorder's single-writer-per-track discipline needs).
func CounterClock() Clock {
	n := new(atomic.Int64)
	return func() int64 { return n.Add(1) }
}

// DefaultTrackSpans is the per-track ring capacity used by New.
const DefaultTrackSpans = 4096

// track is one timeline's state: the span ring plus the stall
// accumulators. One goroutine writes a given track (see the package
// comment), so none of this is atomic.
type track struct {
	spans []sim.ExecSpan // ring storage; always len == cap
	n     int64          // spans ever recorded; write index = n % len

	setupNS, runNS, finishNS           int64
	busyNS, barrierNS, mergeNS, replNS int64
	cellNS                             int64
	events                             int64 // from ExecBusy (shards) / ExecRun (track 0)
	windows                            int64 // ExecWindow instants seen
	first, last                        int64 // clock extent of the track
	started                            bool
}

// Recorder is the flight recorder; it implements sim.ExecTracer. The zero
// value is not usable — construct with New or NewWithLimit — and one
// Recorder must not be shared by concurrently executing runs (sequential
// reuse, ExecBegin resetting between runs, is fine; span rings are
// retained, so steady-state recording allocates nothing).
type Recorder struct {
	clock Clock
	limit int
	trks  []track

	winEvents metrics.Histogram // events per window; written with track 0
}

var _ sim.ExecTracer = (*Recorder)(nil)

// New returns a Recorder around the injected clock with the default
// per-track ring capacity. A nil clock selects CounterClock.
func New(clock Clock) *Recorder { return NewWithLimit(clock, DefaultTrackSpans) }

// NewWithLimit is New with an explicit per-track ring capacity.
func NewWithLimit(clock Clock, perTrackSpans int) *Recorder {
	if clock == nil {
		clock = CounterClock()
	}
	if perTrackSpans <= 0 {
		perTrackSpans = DefaultTrackSpans
	}
	r := &Recorder{clock: clock, limit: perTrackSpans}
	r.ExecBegin(1)
	return r
}

// ExecBegin sizes the recorder for a run recording on the given number of
// tracks and resets every track's ring and accumulators and the
// events-per-window histogram. Ring storage is retained across runs, so
// after the first run at a given track count the call allocates nothing.
func (r *Recorder) ExecBegin(tracks int) {
	if tracks < 1 {
		tracks = 1
	}
	for len(r.trks) < tracks {
		r.trks = append(r.trks, track{spans: make([]sim.ExecSpan, r.limit)})
	}
	r.trks = r.trks[:tracks]
	for i := range r.trks {
		t := &r.trks[i]
		spans := t.spans
		*t = track{spans: spans}
	}
	r.winEvents = metrics.Histogram{}
}

// ExecNow returns the injected clock's current reading.
//
//wakeup:noalloc
func (r *Recorder) ExecNow() int64 {
	//lint:noalloc-ok the injected clock is a captured-at-construction func value; both provided clocks (monotonic wall read, atomic counter) are allocation-free
	return r.clock()
}

// ExecRecord appends one span to its track's ring and folds it into the
// stall accumulators. Steady-state cost: one ring store, one switch, a
// histogram observe on window instants. Never allocates.
//
//wakeup:noalloc
func (r *Recorder) ExecRecord(s sim.ExecSpan) {
	t := &r.trks[s.Track]
	t.spans[t.n%int64(len(t.spans))] = s
	t.n++
	d := s.End - s.Start
	switch s.Kind {
	case sim.ExecSetup:
		t.setupNS += d
	case sim.ExecRun:
		t.runNS += d
		t.events += s.Events
	case sim.ExecFinish:
		t.finishNS += d
	case sim.ExecBusy:
		t.busyNS += d
		t.events += s.Events
	case sim.ExecBarrier:
		t.barrierNS += d
	case sim.ExecMerge:
		t.mergeNS += d
	case sim.ExecReplay:
		t.replNS += d
	case sim.ExecWindow:
		t.windows++
		r.winEvents.Observe(float64(s.Events))
	case sim.ExecCell:
		t.cellNS += d
	}
	if !t.started {
		t.started = true
		t.first = s.Start
		t.last = s.End
		return
	}
	if s.Start < t.first {
		t.first = s.Start
	}
	if s.End > t.last {
		t.last = s.End
	}
}

// Tracks returns the number of tracks the current run declared.
func (r *Recorder) Tracks() int { return len(r.trks) }

// ordered returns t's recorded spans oldest-first, honoring ring wrap.
// The two returned slices view the ring storage in order; either may be
// empty.
func (t *track) ordered() ([]sim.ExecSpan, []sim.ExecSpan) {
	limit := int64(len(t.spans))
	if t.n <= limit {
		return t.spans[:t.n], nil
	}
	head := t.n % limit
	return t.spans[head:], t.spans[:head]
}
