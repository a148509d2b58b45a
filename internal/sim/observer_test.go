package sim

import (
	"errors"
	"strings"
	"testing"

	"riseandshine/internal/graph"
)

func TestStackObservers(t *testing.T) {
	if obs := StackObservers(); obs != nil {
		t.Errorf("empty stack = %v, want nil", obs)
	}
	if obs := StackObservers(nil, nil); obs != nil {
		t.Errorf("all-nil stack = %v, want nil", obs)
	}
	single := NewCountObserver(0)
	if obs := StackObservers(nil, single, nil); obs != Observer(single) {
		t.Errorf("one-element stack should return it unwrapped, got %T", obs)
	}
	double := StackObservers(NewCountObserver(0), NewCountObserver(0))
	if _, ok := double.(multiObserver); !ok {
		t.Errorf("two-element stack = %T, want multiObserver", double)
	}
}

// TestCountObserverAsync: the event-count histogram agrees with the
// engine's own accounting on every axis it mirrors.
func TestCountObserverAsync(t *testing.T) {
	g := graph.RandomConnected(40, 0.1, newTestRand(3))
	counts := NewCountObserver(g.N())
	res, err := RunAsync(Config{
		Graph: g,
		Model: Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
			Delays:   RandomDelay{Seed: 4},
		},
		Observer: counts,
	}, broadcastOnWake{})
	if err != nil {
		t.Fatal(err)
	}
	wakes, deliveries, sends := counts.Totals()
	if wakes != res.AwakeCount {
		t.Errorf("observer wakes = %d, Result.AwakeCount = %d", wakes, res.AwakeCount)
	}
	if sends != res.Messages {
		t.Errorf("observer sends = %d, Result.Messages = %d", sends, res.Messages)
	}
	if deliveries != res.Messages {
		t.Errorf("observer deliveries = %d, want %d (every message delivered)", deliveries, res.Messages)
	}
	for v := 0; v < g.N(); v++ {
		if counts.Sends[v] != res.SentBy[v] {
			t.Fatalf("node %d: observer sends = %d, Result.SentBy = %d", v, counts.Sends[v], res.SentBy[v])
		}
		if counts.Deliveries[v] != res.ReceivedBy[v] {
			t.Fatalf("node %d: observer deliveries = %d, Result.ReceivedBy = %d", v, counts.Deliveries[v], res.ReceivedBy[v])
		}
	}
}

// TestCountObserverZeroValueGrows: a zero-value CountObserver lazily grows
// its per-node slices as events name nodes.
func TestCountObserverZeroValueGrows(t *testing.T) {
	var counts CountObserver
	_, err := RunAsync(Config{
		Graph:     graph.Path(4),
		Model:     Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{Schedule: WakeSingle(0)},
		Observer:  &counts,
	}, broadcastOnWake{})
	if err != nil {
		t.Fatal(err)
	}
	wakes, _, sends := counts.Totals()
	if wakes != 4 || sends != 6 {
		t.Errorf("zero-value observer counted wakes=%d sends=%d, want 4 and 6", wakes, sends)
	}
}

// finishError is an observer whose OnFinish fails, standing in for any
// deferred-I/O observer.
type finishError struct {
	CountObserver
	msg string
}

func (o *finishError) OnFinish(*Result) error { return errors.New(o.msg) }

// TestObserverFinishErrorPropagates: an OnFinish error surfaces from the
// engine's returned error — and a stack joins every failing observer.
func TestObserverFinishErrorPropagates(t *testing.T) {
	cfg := Config{
		Graph:     graph.Path(2),
		Model:     Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{Schedule: WakeSingle(0)},
	}
	cfg.Observer = &finishError{msg: "flush failed"}
	res, err := RunAsync(cfg, broadcastOnWake{})
	if err == nil || !strings.Contains(err.Error(), "flush failed") {
		t.Fatalf("expected flush error, got %v", err)
	}
	if res == nil || !res.AllAwake {
		t.Error("metrics should still be returned alongside an OnFinish error")
	}

	cfg.Observer = StackObservers(&finishError{msg: "first sink"}, &finishError{msg: "second sink"})
	_, err = RunAsync(cfg, broadcastOnWake{})
	if err == nil || !strings.Contains(err.Error(), "first sink") || !strings.Contains(err.Error(), "second sink") {
		t.Fatalf("expected both stacked errors, got %v", err)
	}
}

// TestSyncObserverStack: the synchronous engine feeds the same observer
// interface — a stacked trace + count observer sees the full run.
func TestSyncObserverStack(t *testing.T) {
	var buf strings.Builder
	counts := NewCountObserver(0)
	res, err := RunSync(SyncConfig{
		Graph:    graph.Star(5),
		Model:    Model{Knowledge: KT0, Bandwidth: Local},
		Schedule: WakeSingle(0),
		Observer: StackObservers(NewTraceObserver(&buf), counts),
	}, AsSync(broadcastOnWake{}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "time,kind,node") {
		t.Errorf("sync trace missing header:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "wake-adversary,0") {
		t.Errorf("sync trace missing adversary wake:\n%s", buf.String())
	}
	wakes, _, sends := counts.Totals()
	if wakes != res.AwakeCount || sends != res.Messages {
		t.Errorf("sync counts wakes=%d sends=%d, Result says %d and %d", wakes, sends, res.AwakeCount, res.Messages)
	}
}

// TestSyncTraceWriterErrorSurfaces: satellite regression — a failing trace
// sink fails the synchronous run too, not only the asynchronous one.
func TestSyncTraceWriterErrorSurfaces(t *testing.T) {
	_, err := RunSync(SyncConfig{
		Graph:    graph.Path(2),
		Model:    Model{Knowledge: KT0, Bandwidth: Local},
		Schedule: WakeSingle(0),
		Observer: NewTraceObserver(failingWriter{}),
	}, AsSync(broadcastOnWake{}))
	if err == nil || !strings.Contains(err.Error(), "trace writer") {
		t.Fatalf("expected trace-writer error, got %v", err)
	}
}

// TestDigestObserverPerDelivery: time-free per-delivery digest sets are
// invariant under the delay adversary (the multiset of deliveries each node
// receives does not change), while the order-sensitive transcript digests
// do move with the delays.
func TestDigestObserverPerDelivery(t *testing.T) {
	g := graph.RandomConnected(25, 0.15, newTestRand(9))
	run := func(delays Delayer) *DigestObserver {
		obs := NewDigestObserver(true)
		_, err := RunAsync(Config{
			Graph:     g,
			Model:     Model{Knowledge: KT0, Bandwidth: Local},
			Adversary: Adversary{Schedule: WakeSingle(0), Delays: delays},
			Observer:  obs,
		}, broadcastOnWake{})
		if err != nil {
			t.Fatal(err)
		}
		return obs
	}
	unit := run(UnitDelay{})
	random := run(RandomDelay{Seed: 10})

	transcriptsDiffer := false
	for v := 0; v < g.N(); v++ {
		a, b := unit.DeliveryDigests(v), random.DeliveryDigests(v)
		if len(a) != len(b) {
			t.Fatalf("node %d: %d vs %d deliveries", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: delivery digest sets differ", v)
			}
		}
		if unit.Transcripts(g.N())[v] != random.Transcripts(g.N())[v] {
			transcriptsDiffer = true
		}
	}
	if !transcriptsDiffer {
		t.Error("transcript digests identical under different delays — time is not being folded in")
	}
}
