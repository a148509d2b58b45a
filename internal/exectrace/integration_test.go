package exectrace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"riseandshine"
	"riseandshine/internal/exectrace"
)

// tracedRun executes one flood run on a 24×24 grid with random delays
// (lookahead 0.25) and the given shard count, recording into rec when
// non-nil, and returns the result.
func tracedRun(t *testing.T, shards int, rec *exectrace.Recorder) *riseandshine.Result {
	t.Helper()
	cfg := riseandshine.RunConfig{
		Graph:     riseandshine.Grid(24, 24),
		Algorithm: "flood",
		Delays:    riseandshine.RandomDelay{Seed: 7, Min: 0.25},
		Seed:      7,
		Shards:    shards,
		Observer:  riseandshine.NewDigestObserver(false),
	}
	if rec != nil {
		cfg.ExecTrace = rec
	}
	res, err := riseandshine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStallConservationSharded checks the span-tiling invariant on a real
// sharded run: each shard track's barrier and busy spans share endpoints
// (barrier[i].End == busy[i].Start, busy[i].End == barrier[i+1].Start), so
// busy + barrier must equal the track's wall extent EXACTLY — any gap or
// overlap is a recording bug. Track 0's spans are tight but not tiling
// (dispatch bookkeeping sits between them), so they are bounded by wall.
func TestStallConservationSharded(t *testing.T) {
	const shards = 4
	rec := exectrace.New(exectrace.CounterClock())
	res := tracedRun(t, shards, rec)

	rep := rec.Stall()
	if len(rep.Tracks) != shards+1 {
		t.Fatalf("report has %d tracks, want %d (coordinator + %d shards)", len(rep.Tracks), shards+1, shards)
	}
	if rep.Windows == 0 {
		t.Error("sharded run recorded no window instants")
	}
	if rep.Events != int64(res.Events) {
		t.Errorf("report events = %d, result events = %d", rep.Events, res.Events)
	}
	if rep.Imbalance < 1 {
		t.Errorf("imbalance = %v, want ≥ 1 (max/mean of per-shard busy)", rep.Imbalance)
	}
	var shardEvents int64
	for _, ts := range rep.Tracks[1:] {
		if ts.Spans == 0 {
			t.Errorf("track %d recorded no spans", ts.Track)
			continue
		}
		if got := ts.BusyNS + ts.BarrierNS; got != ts.WallNS {
			t.Errorf("track %d: busy(%d) + barrier(%d) = %d, want exactly wall %d",
				ts.Track, ts.BusyNS, ts.BarrierNS, got, ts.WallNS)
		}
		if ts.MergeNS != 0 || ts.ReplayNS != 0 || ts.SetupNS != 0 || ts.RunNS != 0 {
			t.Errorf("track %d has coordinator-only span kinds: %+v", ts.Track, ts)
		}
		shardEvents += ts.Events
	}
	if shardEvents != int64(res.Events) {
		t.Errorf("per-shard busy events sum to %d, result has %d", shardEvents, res.Events)
	}
	c := rep.Tracks[0]
	if c.SetupNS <= 0 || c.RunNS <= 0 || c.FinishNS <= 0 {
		t.Errorf("coordinator lifecycle spans missing: %+v", c)
	}
	if c.MergeNS <= 0 || c.BarrierNS <= 0 || c.ReplayNS <= 0 {
		t.Errorf("coordinator window spans missing (digests install an observer, so replay must run): %+v", c)
	}
	if sum := c.BarrierNS + c.MergeNS + c.ReplayNS; sum > c.WallNS {
		t.Errorf("coordinator wait(%d)+merge(%d)+replay(%d) = %d exceeds wall %d",
			c.BarrierNS, c.MergeNS, c.ReplayNS, sum, c.WallNS)
	}
	if c.WallNS > 0 && c.SetupNS+c.RunNS+c.FinishNS > c.WallNS {
		t.Errorf("coordinator setup+run+finish = %d exceeds wall %d",
			c.SetupNS+c.RunNS+c.FinishNS, c.WallNS)
	}
}

// TestDigestByteIdenticalWithTracing: attaching the flight recorder must
// not perturb the execution — the full Result (including every per-node
// transcript digest) is byte-identical to an untraced sequential run, at
// every shard count.
func TestDigestByteIdenticalWithTracing(t *testing.T) {
	base := tracedRun(t, 0, nil) // untraced sequential reference
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	baseDigest := riseandshine.CombineDigests(base.TranscriptDigests)

	for _, shards := range []int{0, 1, 4} {
		rec := exectrace.New(exectrace.CounterClock())
		res := tracedRun(t, shards, rec)
		if d := riseandshine.CombineDigests(res.TranscriptDigests); d != baseDigest {
			t.Errorf("shards=%d traced: combined digest %016x, untraced sequential %016x",
				shards, d, baseDigest)
		}
		gotJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, baseJSON) {
			t.Errorf("shards=%d traced: Result JSON differs from untraced sequential\ngot:  %s\nwant: %s",
				shards, gotJSON, baseJSON)
		}
	}
}

// TestChromeTraceSchemaSharded validates the exported trace of a real
// sharded run: valid JSON, metadata first (one thread name per track),
// per-track monotone timestamps, and strict B/E stack discipline.
func TestChromeTraceSchemaSharded(t *testing.T) {
	const shards = 4
	rec := exectrace.New(exectrace.CounterClock())
	tracedRun(t, shards, rec)

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		TimeUnit    string            `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.TimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", trace.TimeUnit)
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		S    string  `json:"s"`
	}
	threadNames := map[int]int{}
	lastTs := map[int]float64{}
	stacks := map[int][]string{}
	sawSpans := false
	for i, raw := range trace.TraceEvents {
		var ev event
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Pid != 0 {
			t.Errorf("event %d: pid = %d, want 0", i, ev.Pid)
		}
		if ev.Ph == "M" {
			if sawSpans {
				t.Errorf("event %d: metadata after span events", i)
			}
			if ev.Name == "thread_name" {
				threadNames[ev.Tid]++
			}
			continue
		}
		sawSpans = true
		if prev, ok := lastTs[ev.Tid]; ok && ev.Ts < prev {
			t.Errorf("event %d (tid %d): ts %v < previous %v", i, ev.Tid, ev.Ts, prev)
		}
		lastTs[ev.Tid] = ev.Ts
		switch ev.Ph {
		case "B":
			stacks[ev.Tid] = append(stacks[ev.Tid], ev.Name)
		case "E":
			st := stacks[ev.Tid]
			if len(st) == 0 {
				t.Errorf("event %d (tid %d): E %q with empty stack", i, ev.Tid, ev.Name)
				continue
			}
			if top := st[len(st)-1]; top != ev.Name {
				t.Errorf("event %d (tid %d): E %q closes open span %q", i, ev.Tid, ev.Name, top)
			}
			stacks[ev.Tid] = st[:len(st)-1]
		case "i":
			if ev.S != "t" {
				t.Errorf("event %d: instant scope %q, want \"t\"", i, ev.S)
			}
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}
	if len(threadNames) != shards+1 {
		t.Errorf("trace names %d threads, want %d", len(threadNames), shards+1)
	}
	for tid, n := range threadNames {
		if n != 1 {
			t.Errorf("tid %d has %d thread_name records, want 1", tid, n)
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Errorf("tid %d: %d spans never closed: %v", tid, len(st), st)
		}
	}
}
