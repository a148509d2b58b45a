package core_test

import (
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// dfsRankRun is one single-source DFSRank execution under a named delayer,
// with what its observers saw.
type dfsRankRun struct {
	name    string
	res     *sim.Result
	digests *sim.DigestObserver
	causal  sim.CausalReport
}

// runDFSRankUnderDelays runs single-source DFSRank on g from node 0 under
// unit, random (seeds 13 and 18) and biased delays, each run with a fresh
// digest observer, causal observer and ModelCheck. The unit-delay run
// comes first.
func runDFSRankUnderDelays(t *testing.T, g *graph.Graph, seed int64) []dfsRankRun {
	t.Helper()
	model := sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}
	var runs []dfsRankRun
	for _, td := range []struct {
		name  string
		delay sim.Delayer
	}{
		{"unit", sim.UnitDelay{}},
		{"random13", sim.RandomDelay{Seed: 13}},
		{"random18", sim.RandomDelay{Seed: 18}},
		{"biased", biasedDelay(g, 5)},
	} {
		digests := sim.NewDigestObserver(true)
		causal := sim.NewCausalObserver(g, nil)
		res, err := sim.RunAsync(sim.Config{
			Graph:     g,
			Model:     model,
			Adversary: sim.Adversary{Schedule: sim.WakeSingle(0), Delays: td.delay},
			Seed:      seed,
			Observer:  sim.StackObservers(digests, causal, sim.NewModelCheck(g, nil, model)),
		}, core.DFSRank{})
		if err != nil {
			t.Fatalf("%s: %v", td.name, err)
		}
		if !res.AllAwake {
			t.Fatalf("%s: only %d/%d awake", td.name, res.AwakeCount, g.N())
		}
		runs = append(runs, dfsRankRun{name: td.name, res: res, digests: digests, causal: causal.Report()})
	}
	return runs
}

// TestCrossEngineDFSRankDeliverySets: the Theorem 3 DFS traversal is
// schedule-independent when a single source wakes — the token visits nodes
// in an order fixed by ranks and topology, so every node must receive the
// same multiset of messages under every delay adversary. Per-node
// time-free delivery digest sets, compared order-insensitively, must
// coincide exactly; delivery times differ, so the order-sensitive
// transcript digests are out of scope here.
func TestCrossEngineDFSRankDeliverySets(t *testing.T) {
	g := graph.RandomConnected(80, 0.06, rand.New(rand.NewSource(7)))
	runs := runDFSRankUnderDelays(t, g, 42)
	ref := runs[0]
	for _, r := range runs[1:] {
		if r.res.Messages != ref.res.Messages {
			t.Errorf("%s: %d messages, %s: %d", r.name, r.res.Messages, ref.name, ref.res.Messages)
		}
		for v := 0; v < g.N(); v++ {
			a, b := ref.digests.DeliveryDigests(v), r.digests.DeliveryDigests(v)
			if len(a) != len(b) {
				t.Fatalf("node %d received %d deliveries under %s, %d under %s", v, len(a), ref.name, len(b), r.name)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("node %d: delivery digest sets diverge between %s and %s", v, ref.name, r.name)
				}
			}
		}
	}
}

// TestCrossEngineDFSRankCriticalPath: with a single wake-up source the
// Theorem 3 DFS traversal is schedule-independent, so the causal DAG the
// tracer reconstructs must be the same under every delay adversary: every
// node wakes at the same causal depth, the critical path ends at the same
// node with the same length, and the path visits the same node sequence.
// Delivery times differ, so the At fields are out of scope.
func TestCrossEngineDFSRankCriticalPath(t *testing.T) {
	g := graph.RandomConnected(70, 0.07, rand.New(rand.NewSource(17)))
	runs := runDFSRankUnderDelays(t, g, 99)
	ref := runs[0].causal
	for _, r := range runs[1:] {
		rep := r.causal
		for v := range ref.WakeDepth {
			if ref.WakeDepth[v] != rep.WakeDepth[v] {
				t.Fatalf("node %d wakes at causal depth %d under unit delays, %d under %s",
					v, ref.WakeDepth[v], rep.WakeDepth[v], r.name)
			}
		}
		if ref.LastWakeNode != rep.LastWakeNode {
			t.Errorf("last wake node differs: unit %d vs %s %d", ref.LastWakeNode, r.name, rep.LastWakeNode)
		}
		if ref.CriticalPathLength != rep.CriticalPathLength {
			t.Errorf("critical path length differs: unit %d vs %s %d",
				ref.CriticalPathLength, r.name, rep.CriticalPathLength)
		}
		if ref.MaxDepth != rep.MaxDepth {
			t.Errorf("max causal depth differs: unit %d vs %s %d", ref.MaxDepth, r.name, rep.MaxDepth)
		}
		if len(ref.Path) != len(rep.Path) {
			t.Fatalf("path lengths differ: unit %d vs %s %d", len(ref.Path), r.name, len(rep.Path))
		}
		for i := range ref.Path {
			if ref.Path[i].Node != rep.Path[i].Node || ref.Path[i].Depth != rep.Path[i].Depth {
				t.Fatalf("path step %d differs: unit %+v vs %s %+v", i, ref.Path[i], r.name, rep.Path[i])
			}
		}
	}
}
