package sim

import (
	"testing"

	"riseandshine/internal/graph"
)

// runCausal floods g from src under the given delays and returns the
// causal report.
func runCausal(t *testing.T, g *graph.Graph, src int, delays Delayer) CausalReport {
	t.Helper()
	obs := NewCausalObserver(g, nil)
	res, err := RunAsync(Config{
		Setup:    setupOf(g, Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule: WakeSingle(src),
		Delays:   delays,
		Observer: obs,
	}, broadcastOnWake{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatalf("flood left %d/%d awake", res.AwakeCount, g.N())
	}
	return obs.Report()
}

// checkPath validates the structural invariants of a reported critical
// path: it starts at an adversarial wake with depth 0, depths step by one,
// consecutive nodes are adjacent, and times never regress.
func checkPath(t *testing.T, g *graph.Graph, rep CausalReport) {
	t.Helper()
	if len(rep.Path) != rep.CriticalPathLength+1 {
		t.Fatalf("path has %d steps, want critical-path length %d + origin", len(rep.Path), rep.CriticalPathLength)
	}
	for i, step := range rep.Path {
		if step.Depth != i {
			t.Fatalf("step %d has depth %d, want %d", i, step.Depth, i)
		}
		if i == 0 {
			continue
		}
		prev := rep.Path[i-1]
		if step.At < prev.At {
			t.Fatalf("step %d at time %v precedes step %d at %v", i, step.At, i-1, prev.At)
		}
		adjacent := false
		for p := 1; p <= g.Degree(prev.Node); p++ {
			if graph.IdentityPorts(g).Neighbor(prev.Node, p) == step.Node {
				adjacent = true
				break
			}
		}
		if !adjacent {
			t.Fatalf("path steps %d→%d connect non-adjacent nodes %d and %d", i-1, i, prev.Node, step.Node)
		}
	}
	if last := rep.Path[len(rep.Path)-1]; last.Node != rep.LastWakeNode {
		t.Fatalf("path ends at node %d, last wake was node %d", last.Node, rep.LastWakeNode)
	}
}

// TestCausalFloodPathEccentricity: Theorem-level sanity for the tracer —
// flooding a unit-delay path from any source yields a critical path of
// exactly the source's eccentricity, and every node's wake depth is its
// distance from the source.
func TestCausalFloodPathEccentricity(t *testing.T) {
	g := graph.Path(30)
	for _, src := range []int{0, 7, 15, 29} {
		rep := runCausal(t, g, src, UnitDelay{})
		if want := g.Eccentricity(src); rep.CriticalPathLength != want {
			t.Errorf("src %d: critical path %d, want eccentricity %d", src, rep.CriticalPathLength, want)
		}
		dist := g.BFSFrom([]int{src})
		for v, d := range rep.WakeDepth {
			if d != dist[v] {
				t.Errorf("src %d: node %d wake depth %d, want distance %d", src, v, d, dist[v])
			}
		}
		checkPath(t, g, rep)
	}
}

// TestCausalFloodStarEccentricity: the star pins both eccentricity cases —
// waking the center reaches everyone in one causal hop; waking a leaf needs
// two.
func TestCausalFloodStarEccentricity(t *testing.T) {
	g := graph.Star(12)
	for _, src := range []int{0, 5} {
		rep := runCausal(t, g, src, UnitDelay{})
		if want := g.Eccentricity(src); rep.CriticalPathLength != want {
			t.Errorf("src %d: critical path %d, want eccentricity %d", src, rep.CriticalPathLength, want)
		}
		checkPath(t, g, rep)
	}
}

// TestCausalDepthDelayInvariant: on a tree every source→node route is
// unique, so for a delay-oblivious algorithm (flood broadcasts once, on
// wake) the causal depth at which each node wakes is a function of the
// topology alone — the delay adversary moves wake times but not the causal
// structure. General graphs do not have this property: a longer chain of
// short delays can outrun a short chain of long ones.
func TestCausalDepthDelayInvariant(t *testing.T) {
	g := graph.RandomTree(60, newTestRand(41))
	unit := runCausal(t, g, 0, UnitDelay{})
	rand1 := runCausal(t, g, 0, RandomDelay{Seed: 42})
	rand2 := runCausal(t, g, 0, RandomDelay{Seed: 43})

	for v := range unit.WakeDepth {
		if rand1.WakeDepth[v] != unit.WakeDepth[v] || rand2.WakeDepth[v] != unit.WakeDepth[v] {
			t.Fatalf("node %d wake depth varies with delays: unit %d, random %d/%d",
				v, unit.WakeDepth[v], rand1.WakeDepth[v], rand2.WakeDepth[v])
		}
	}
	if rand1.MaxDepth != unit.MaxDepth || rand2.MaxDepth != unit.MaxDepth {
		t.Errorf("max causal depth varies with delays: unit %d, random %d/%d",
			unit.MaxDepth, rand1.MaxDepth, rand2.MaxDepth)
	}
	dist := g.BFSFrom([]int{0})
	for v, d := range unit.WakeDepth {
		if d != dist[v] {
			t.Errorf("node %d wake depth %d, want tree distance %d", v, d, dist[v])
		}
	}
}

// TestCausalRandomGraphBounds: on a general graph under random delays the
// exact depths move with the schedule, but the tracer's invariants hold:
// wake depth is at least the BFS distance (a causal chain is a walk), the
// critical path is structurally valid, and MaxDepth dominates every wake
// depth.
func TestCausalRandomGraphBounds(t *testing.T) {
	g := graph.RandomConnected(50, 0.1, newTestRand(44))
	rep := runCausal(t, g, 0, RandomDelay{Seed: 45})
	dist := g.BFSFrom([]int{0})
	for v, d := range rep.WakeDepth {
		if d < dist[v] {
			t.Errorf("node %d wake depth %d below BFS distance %d — causal chains cannot be shorter than shortest paths", v, d, dist[v])
		}
		if d > rep.MaxDepth {
			t.Errorf("node %d wake depth %d exceeds MaxDepth %d", v, d, rep.MaxDepth)
		}
	}
	checkPath(t, g, rep)
}

// TestCausalSyncEngine: the tracer works on the synchronous engine too,
// where flooding a path from one end wakes node v in round v.
func TestCausalSyncEngine(t *testing.T) {
	g := graph.Path(10)
	obs := NewCausalObserver(g, nil)
	res, err := RunSync(Config{
		Setup:    setupOf(g, Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule: WakeSingle(0),
		Observer: obs,
	}, AsSync(broadcastOnWake{}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatalf("flood left %d/%d awake", res.AwakeCount, g.N())
	}
	rep := obs.Report()
	if want := g.Eccentricity(0); rep.CriticalPathLength != want {
		t.Errorf("sync critical path %d, want eccentricity %d", rep.CriticalPathLength, want)
	}
	checkPath(t, g, rep)
}

// TestCausalReportAdversarialLast: when every node is woken directly by
// the adversary no causal chain ends at the last wake — the critical path
// degenerates to the origin alone.
func TestCausalReportAdversarialLast(t *testing.T) {
	g := graph.Path(4)
	obs := NewCausalObserver(g, nil)
	if _, err := RunAsync(Config{
		Setup:    setupOf(g, Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule: WakeSet{Nodes: []int{0, 1, 2, 3}},
		Observer: obs,
	}, broadcastOnWake{}); err != nil {
		t.Fatal(err)
	}
	rep := obs.Report()
	if rep.CriticalPathLength != 0 {
		t.Errorf("all-adversarial wake-up has critical path %d, want 0", rep.CriticalPathLength)
	}
	if len(rep.Path) != 1 || rep.Path[0].Depth != 0 {
		t.Errorf("degenerate path = %+v, want a single origin step", rep.Path)
	}
}

// TestCausalPartialStreamFails: a tracer attached mid-execution (here: fed
// a delivery with no matching send) must fail the run rather than report a
// bogus path.
func TestCausalPartialStreamFails(t *testing.T) {
	g := graph.Path(2)
	obs := NewCausalObserver(g, nil)
	obs.OnDeliver(1, 1, Delivery{Port: 1, SenderPort: 1})
	if err := obs.OnFinish(&Result{}); err == nil {
		t.Error("delivery without a matching send should fail the run")
	}
}
