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
	single := NewDigestObserver(false)
	if obs := StackObservers(nil, single, nil); obs != Observer(single) {
		t.Errorf("one-element stack should return it unwrapped, got %T", obs)
	}
	double := StackObservers(NewDigestObserver(false), NewDigestObserver(false))
	if _, ok := double.(multiObserver); !ok {
		t.Errorf("two-element stack = %T, want multiObserver", double)
	}
}

// finishError is an observer whose OnFinish fails, standing in for any
// deferred-I/O observer.
type finishError struct {
	DigestObserver
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
// interface — a stacked trace observer and model checker see the full run,
// and the checker's tallies agree with the Result.
func TestSyncObserverStack(t *testing.T) {
	var buf strings.Builder
	g := graph.Star(5)
	model := Model{Knowledge: KT0, Bandwidth: Local}
	if _, err := RunSync(Config{
		Graph:     g,
		Model:     model,
		Adversary: Adversary{Schedule: WakeSingle(0)},
		Observer:  StackObservers(NewTraceObserver(&buf), NewModelCheck(g, nil, model)),
	}, AsSync(broadcastOnWake{})); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "time,kind,node") {
		t.Errorf("sync trace missing header:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "wake-adversary,0") {
		t.Errorf("sync trace missing adversary wake:\n%s", buf.String())
	}
}

// TestSyncTraceWriterErrorSurfaces: satellite regression — a failing trace
// sink fails the synchronous run too, not only the asynchronous one.
func TestSyncTraceWriterErrorSurfaces(t *testing.T) {
	_, err := RunSync(Config{
		Graph:     graph.Path(2),
		Model:     Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{Schedule: WakeSingle(0)},
		Observer:  NewTraceObserver(failingWriter{}),
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
