package exectrace

import (
	"fmt"
	"strings"
	"time"

	"riseandshine/internal/metrics"
)

// TrackStall is one track's aggregate time accounting, in nanoseconds of
// the recorder's injected clock. Track 0 is the engine (sequential runs)
// or the coordinator (sharded runs); track i ≥ 1 is shard i-1. The totals
// come from accumulators, not the span ring, so they are exact even when
// Dropped > 0.
type TrackStall struct {
	Track   int   `json:"track"`
	SetupNS int64 `json:"setup_ns,omitempty"`
	RunNS   int64 `json:"run_ns,omitempty"`
	// FinishNS covers result assembly and observer finalization.
	FinishNS int64 `json:"finish_ns,omitempty"`
	// BusyNS is time spent draining windows (shard tracks).
	BusyNS int64 `json:"busy_ns,omitempty"`
	// BarrierNS is time spent waiting at window barriers: for shard
	// tracks, from finishing one window to receiving the next; for track
	// 0, dispatching a window and waiting for the slowest shard.
	BarrierNS int64 `json:"barrier_ns,omitempty"`
	// MergeNS is the coordinator's k-way outbox merge time (track 0 only).
	MergeNS int64 `json:"merge_ns,omitempty"`
	// ReplayNS is the coordinator's observer-replay time (track 0 only).
	ReplayNS int64 `json:"replay_ns,omitempty"`
	// CellNS is whole-experiment-cell time (experiment.Runner spans).
	CellNS int64 `json:"cell_ns,omitempty"`
	// Events is the number of engine events this track processed.
	Events int64 `json:"events"`
	// WallNS is the track's clock extent: last span end − first span start.
	WallNS int64 `json:"wall_ns"`
	// Spans is the number of spans recorded; Dropped counts how many of
	// them were overwritten in the bounded ring (0 until it wraps).
	Spans   int64 `json:"spans"`
	Dropped int64 `json:"dropped,omitempty"`
}

// StallReport is the aggregate view of one recorded run: where the
// wall-clock went, per track, plus cross-shard balance measures.
type StallReport struct {
	Tracks []TrackStall `json:"tracks"`
	// Windows is the number of barrier windows the run executed (0 for
	// sequential runs).
	Windows int64 `json:"windows"`
	// Events is the total event count (track 0's run span when present,
	// else the sum over shard tracks).
	Events int64 `json:"events"`
	// Imbalance is max/mean of per-shard busy time across shard tracks —
	// 1.0 is a perfectly balanced partition, P is one shard doing all the
	// work. Zero when the run had no shard tracks or no busy time.
	Imbalance float64 `json:"imbalance,omitempty"`
	// EventsPerWindow is the distribution of per-window event counts
	// (summed across shards), log-bucketed.
	EventsPerWindow metrics.HistogramSnapshot `json:"events_per_window"`
}

// Stall assembles the report from the recorder's accumulators. Call it
// only after the traced run returned.
func (r *Recorder) Stall() StallReport {
	rep := StallReport{Tracks: make([]TrackStall, len(r.trks))}
	for i := range r.trks {
		t := &r.trks[i]
		ts := TrackStall{
			Track:     i,
			SetupNS:   t.setupNS,
			RunNS:     t.runNS,
			FinishNS:  t.finishNS,
			BusyNS:    t.busyNS,
			BarrierNS: t.barrierNS,
			MergeNS:   t.mergeNS,
			ReplayNS:  t.replNS,
			CellNS:    t.cellNS,
			Events:    t.events,
			Spans:     t.n,
		}
		if t.started {
			ts.WallNS = t.last - t.first
		}
		if over := t.n - int64(len(t.spans)); over > 0 {
			ts.Dropped = over
		}
		rep.Tracks[i] = ts
		rep.Windows += t.windows
	}
	if len(rep.Tracks) > 0 && rep.Tracks[0].RunNS > 0 {
		rep.Events = rep.Tracks[0].Events
	} else {
		for _, ts := range rep.Tracks[1:] {
			rep.Events += ts.Events
		}
	}
	rep.Imbalance = imbalance(rep.Tracks)
	rep.EventsPerWindow = r.winEvents.Snapshot("exectrace_window_events")
	return rep
}

// imbalance is max/mean of busy time over shard tracks (tracks 1..P).
func imbalance(tracks []TrackStall) float64 {
	var sum, max int64
	var p int
	for _, ts := range tracks[min(1, len(tracks)):] {
		sum += ts.BusyNS
		if ts.BusyNS > max {
			max = ts.BusyNS
		}
		p++
	}
	if p == 0 || sum == 0 {
		return 0
	}
	return float64(max) * float64(p) / float64(sum)
}

// ns renders a nanosecond total as a compact duration.
func ns(v int64) string { return time.Duration(v).Round(time.Microsecond).String() }

// String renders the report as the CLIs print it: one line per track plus
// a summary line, stable field order, no timestamps.
func (rep StallReport) String() string {
	var b strings.Builder
	for _, ts := range rep.Tracks {
		if ts.Track == 0 {
			fmt.Fprintf(&b, "track 0 (coordinator): setup=%s run=%s finish=%s",
				ns(ts.SetupNS), ns(ts.RunNS), ns(ts.FinishNS))
			if ts.BarrierNS > 0 || ts.MergeNS > 0 || ts.ReplayNS > 0 {
				fmt.Fprintf(&b, " wait=%s merge=%s replay=%s",
					ns(ts.BarrierNS), ns(ts.MergeNS), ns(ts.ReplayNS))
			}
		} else {
			fmt.Fprintf(&b, "track %d (shard %d): busy=%s barrier=%s events=%d",
				ts.Track, ts.Track-1, ns(ts.BusyNS), ns(ts.BarrierNS), ts.Events)
		}
		if ts.Dropped > 0 {
			fmt.Fprintf(&b, " dropped=%d", ts.Dropped)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "windows=%d events=%d", rep.Windows, rep.Events)
	if rep.Imbalance > 0 {
		fmt.Fprintf(&b, " imbalance=%.2f", rep.Imbalance)
	}
	if rep.EventsPerWindow.Count > 0 {
		fmt.Fprintf(&b, " events/window p50=%.0f p99=%.0f",
			rep.EventsPerWindow.Quantile(0.50), rep.EventsPerWindow.Quantile(0.99))
	}
	b.WriteByte('\n')
	return b.String()
}
