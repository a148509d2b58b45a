package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"riseandshine/internal/graph"
)

// marshalResult serializes a Result the way experiment output does; the
// determinism contract promises the bytes are identical across runs with
// the same configuration and seed.
func marshalResult(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// withDigests returns cfg with a fresh DigestObserver and a fresh
// ModelCheck stacked in front of its observer, so every differential run
// is also checked against the model. Call it at each Run, never while
// building a config list: an observer holds the state of one run, so one
// shared across the runs of a reused config would fold them together.
func withDigests(cfg Config) Config {
	pm := cfg.Ports
	if cfg.Setup != nil {
		pm = cfg.Setup.Ports
	}
	cfg.Observer = StackObservers(NewDigestObserver(false), NewModelCheck(cfg.Graph, pm, cfg.Model), cfg.Observer)
	return cfg
}

// marshalDigested is marshalResult for runs made through withDigests. It
// fails the test when the Result carries no transcript digests, so a
// differential comparison cannot lose its digest coverage unnoticed.
func marshalDigested(t *testing.T, res *Result) []byte {
	t.Helper()
	if len(res.TranscriptDigests) == 0 {
		t.Fatal("Result carries no transcript digests")
	}
	return marshalResult(t, res)
}

// TestAsyncResultsByteIdentical runs the same async configuration twice
// and requires the serialized Results to match byte for byte — the
// regression guard behind the wakeuplint determinism contract.
func TestAsyncResultsByteIdentical(t *testing.T) {
	g := graph.RandomConnected(80, 0.08, newTestRand(21))
	run := func() *Result {
		var received []int
		res, err := RunAsync(Config{
			Graph: g,
			Model: Model{Knowledge: KT0, Bandwidth: Local},
			Adversary: Adversary{
				Schedule: RandomWake{Count: 5, Window: 4, Seed: 19},
				Delays:   RandomDelay{Seed: 23},
			},
			Seed: 29,
		}, seqAlgorithm{count: 6, bits: 8, received: &received})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := marshalResult(t, run()), marshalResult(t, run())
	if !bytes.Equal(a, b) {
		t.Errorf("async results differ between identical runs:\nfirst:  %s\nsecond: %s", a, b)
	}
}

// TestSyncResultsByteIdentical is the synchronous-engine counterpart.
func TestSyncResultsByteIdentical(t *testing.T) {
	g := graph.RandomConnected(80, 0.08, newTestRand(31))
	run := func() *Result {
		var received []int
		res, err := RunSync(Config{
			Graph:     g,
			Model:     Model{Knowledge: KT0, Bandwidth: Local},
			Adversary: Adversary{Schedule: RandomWake{Count: 5, Window: 4, Seed: 37}},
			Seed:      41,
		}, AsSync(seqAlgorithm{count: 6, bits: 8, received: &received}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := marshalResult(t, run()), marshalResult(t, run())
	if !bytes.Equal(a, b) {
		t.Errorf("sync results differ between identical runs:\nfirst:  %s\nsecond: %s", a, b)
	}
}
