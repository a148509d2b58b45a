package exectrace

import (
	"testing"

	"riseandshine/internal/sim"
)

func TestCounterClockMonotone(t *testing.T) {
	c := CounterClock()
	prev := int64(0)
	for i := 0; i < 100; i++ {
		v := c()
		if v <= prev {
			t.Fatalf("reading %d: got %d after %d, want strictly increasing", i, v, prev)
		}
		prev = v
	}
	if first := CounterClock()(); first != 1 {
		t.Fatalf("fresh CounterClock first reading = %d, want 1", first)
	}
}

func TestRingOverwriteKeepsTotalsExact(t *testing.T) {
	r := NewWithLimit(nil, 4)
	const spans = 10
	for i := 0; i < spans; i++ {
		r.ExecRecord(sim.ExecSpan{Track: 0, Kind: sim.ExecBusy, Window: int64(i), Events: 1,
			Start: int64(10 * i), End: int64(10*i + 3)})
	}
	rep := r.Stall()
	ts := rep.Tracks[0]
	if ts.Spans != spans {
		t.Errorf("Spans = %d, want %d", ts.Spans, spans)
	}
	if ts.Dropped != spans-4 {
		t.Errorf("Dropped = %d, want %d", ts.Dropped, spans-4)
	}
	// Totals come from accumulators, not the ring: exact despite overwrite.
	if ts.BusyNS != 3*spans {
		t.Errorf("BusyNS = %d, want %d", ts.BusyNS, 3*spans)
	}
	if ts.Events != spans {
		t.Errorf("Events = %d, want %d", ts.Events, spans)
	}
	if ts.WallNS != int64(10*(spans-1)+3) {
		t.Errorf("WallNS = %d, want %d", ts.WallNS, 10*(spans-1)+3)
	}
	// The ring holds exactly the newest 4 spans, oldest first.
	a, b := r.trks[0].ordered()
	got := append(append([]sim.ExecSpan{}, a...), b...)
	if len(got) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := int64(spans - 4 + i); s.Window != want {
			t.Errorf("ring[%d].Window = %d, want %d", i, s.Window, want)
		}
	}
}

func TestExecBeginResetsAndReuses(t *testing.T) {
	r := New(nil)
	r.ExecBegin(3)
	if r.Tracks() != 3 {
		t.Fatalf("Tracks = %d, want 3", r.Tracks())
	}
	r.ExecRecord(sim.ExecSpan{Track: 2, Kind: sim.ExecBusy, Events: 7, Start: 1, End: 5})
	r.ExecRecord(sim.ExecSpan{Track: 0, Kind: sim.ExecWindow, Events: 7, Start: 5, End: 5})
	r.ExecBegin(3)
	rep := r.Stall()
	if rep.Tracks[2].Events != 0 || rep.Tracks[2].Spans != 0 {
		t.Errorf("ExecBegin did not reset track 2: %+v", rep.Tracks[2])
	}
	if rep.Windows != 0 || rep.EventsPerWindow.Count != 0 {
		t.Errorf("ExecBegin did not reset the window figures: windows %d, histogram %+v", rep.Windows, rep.EventsPerWindow)
	}
	// Shrinking keeps storage; regrowing reuses it without fresh rings.
	r.ExecBegin(1)
	if r.Tracks() != 1 {
		t.Fatalf("Tracks after shrink = %d, want 1", r.Tracks())
	}
	r.ExecBegin(3)
	if r.Tracks() != 3 {
		t.Fatalf("Tracks after regrow = %d, want 3", r.Tracks())
	}
}

// TestRecorderZeroAllocs pins the runtime half of the //wakeup:noalloc
// contracts on the record path: once ExecBegin sized the rings, reading
// the clock and recording spans (including window instants, which feed
// the histogram) allocates nothing — and ExecBegin itself allocates
// nothing when re-declaring an already-provisioned track count.
func TestRecorderZeroAllocs(t *testing.T) {
	r := New(nil)
	r.ExecBegin(5)
	win := int64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		t0 := r.ExecNow()
		t1 := r.ExecNow()
		r.ExecRecord(sim.ExecSpan{Track: 1, Kind: sim.ExecBusy, Window: win, Events: 3, Start: t0, End: t1})
		r.ExecRecord(sim.ExecSpan{Track: 0, Kind: sim.ExecBarrier, Window: win, Start: t0, End: t1})
		r.ExecRecord(sim.ExecSpan{Track: 0, Kind: sim.ExecWindow, Window: win, Events: 3, Start: t1, End: t1})
		win++
	}); allocs != 0 {
		t.Errorf("record path allocates %.0f times per window, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.ExecBegin(5)
	}); allocs != 0 {
		t.Errorf("steady-state ExecBegin allocates %.0f times per run, want 0", allocs)
	}
}

func TestStallImbalance(t *testing.T) {
	r := New(nil)
	r.ExecBegin(3) // coordinator + 2 shards
	r.ExecRecord(sim.ExecSpan{Track: 1, Kind: sim.ExecBusy, Events: 1, Start: 0, End: 30})
	r.ExecRecord(sim.ExecSpan{Track: 2, Kind: sim.ExecBusy, Events: 1, Start: 0, End: 10})
	rep := r.Stall()
	// max 30, mean 20 → 1.5.
	if got := rep.Imbalance; got != 1.5 {
		t.Errorf("Imbalance = %v, want 1.5", got)
	}
	if rep.Events != 2 {
		t.Errorf("Events = %d, want 2 (summed over shard tracks)", rep.Events)
	}
}
