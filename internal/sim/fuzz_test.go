package sim

import (
	"testing"
	"testing/quick"

	"riseandshine/internal/graph"
)

// fuzzAlg sends random bursts over random ports with a bounded per-node
// budget; it exercises the engine against arbitrary traffic patterns.
type fuzzAlg struct {
	budget int
}

func (fuzzAlg) Name() string { return "fuzz" }

func (a fuzzAlg) NewMachine(info NodeInfo) Program {
	return &fuzzMachine{info: info, budget: a.budget}
}

type fuzzMachine struct {
	info   NodeInfo
	budget int
}

func (m *fuzzMachine) burst(ctx Context) {
	if m.info.Degree == 0 {
		return
	}
	rng := ctx.Rand()
	k := rng.Intn(3)
	for i := 0; i < k && m.budget > 0; i++ {
		m.budget--
		port := 1 + rng.Intn(m.info.Degree)
		ctx.Send(port, testMsg{Seq: rng.Intn(100), bits: 1 + rng.Intn(64)})
	}
}

func (m *fuzzMachine) OnWake(ctx Context)                { m.burst(ctx) }
func (m *fuzzMachine) OnMessage(ctx Context, _ Delivery) { m.burst(ctx) }

// TestEngineInvariantsUnderFuzz drives random traffic and checks global
// accounting invariants: sends equal receives once the queue drains, the
// awake count matches the wake times, and per-node counters sum to the
// totals.
func TestEngineInvariantsUnderFuzz(t *testing.T) {
	f := func(nRaw uint8, seed int64, budget uint8) bool {
		n := int(nRaw)%60 + 2
		g := graph.RandomConnected(n, 0.1, newTestRand(seed))
		pm := graph.RandomPorts(g, newTestRand(seed+1))
		res, err := RunAsync(Config{
			Setup:    mustSetup(g, pm, Model{Knowledge: KT0, Bandwidth: Local}, nil, nil),
			Schedule: RandomWake{Count: 1 + int(nRaw)%3, Window: 2, Seed: seed},
			Delays:   RandomDelay{Seed: seed},
			Seed:     seed,
		}, fuzzAlg{budget: int(budget)%20 + 1})
		if err != nil {
			t.Logf("run error: %v", err)
			return false
		}
		sent, recv := 0, 0
		for v := 0; v < n; v++ {
			sent += res.SentBy[v]
			recv += res.ReceivedBy[v]
		}
		if sent != res.Messages || recv != res.Messages {
			t.Logf("accounting mismatch: sent=%d recv=%d msgs=%d", sent, recv, res.Messages)
			return false
		}
		awake := 0
		for v := 0; v < n; v++ {
			if res.WakeAt[v] >= 0 {
				awake++
				if res.WakeAt[v] > res.Span+res.WakeAt[0]+100 {
					return false
				}
			} else if res.SentBy[v] > 0 || res.ReceivedBy[v] > 0 {
				t.Logf("sleeping node %d has traffic", v)
				return false
			}
		}
		if awake != res.AwakeCount {
			t.Logf("awake count mismatch: %d vs %d", awake, res.AwakeCount)
			return false
		}
		if res.WakeSpan > res.Span {
			t.Logf("wake span %v exceeds span %v", res.WakeSpan, res.Span)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSyncEngineInvariantsUnderFuzz mirrors the invariant check on the
// synchronous engine through the AsSync adapter.
func TestSyncEngineInvariantsUnderFuzz(t *testing.T) {
	f := func(nRaw uint8, seed int64, budget uint8) bool {
		n := int(nRaw)%50 + 2
		g := graph.RandomConnected(n, 0.1, newTestRand(seed))
		res, err := RunSync(Config{
			Setup:    setupOf(g, Model{Knowledge: KT0, Bandwidth: Local}),
			Schedule: RandomWake{Count: 2, Seed: seed},
			Seed:     seed,
		}, AsSync(fuzzAlg{budget: int(budget)%20 + 1}))
		if err != nil {
			return false
		}
		sent, recv := 0, 0
		for v := 0; v < n; v++ {
			sent += res.SentBy[v]
			recv += res.ReceivedBy[v]
		}
		return sent == res.Messages && recv == res.Messages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDigestsDeterministic: transcripts are reproducible and sensitive to
// the delay adversary.
func TestDigestsDeterministic(t *testing.T) {
	g := graph.RandomConnected(40, 0.1, newTestRand(3))
	run := func(delaySeed int64) []uint64 {
		res, err := RunAsync(Config{
			Setup:    setupOf(g, Model{Knowledge: KT0, Bandwidth: Local}),
			Schedule: WakeSingle(0),
			Delays:   RandomDelay{Seed: delaySeed},
			Seed:     7,
			Observer: NewDigestObserver(false),
		}, fuzzAlg{budget: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res.TranscriptDigests
	}
	a, b := run(1), run(1)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("digest of node %d not reproducible", v)
		}
	}
	c := run(2)
	same := true
	for v := range a {
		if a[v] != c[v] {
			same = false
			break
		}
	}
	if same {
		t.Error("different delay seeds produced identical transcripts everywhere")
	}
}
