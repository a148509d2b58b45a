package graph

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestBFSFrom(t *testing.T) {
	g := Path(5)
	dist := g.BFSFrom([]int{0})
	want := []int{0, 1, 2, 3, 4}
	for v, d := range dist {
		if d != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, d, want[v])
		}
	}
	// Multi-source.
	dist = g.BFSFrom([]int{0, 4})
	want = []int{0, 1, 2, 1, 0}
	for v, d := range dist {
		if d != want[v] {
			t.Fatalf("multi dist[%d] = %d, want %d", v, d, want[v])
		}
	}
	// Empty source set.
	for _, d := range g.BFSFrom(nil) {
		if d != -1 {
			t.Fatal("empty-source BFS should yield -1 everywhere")
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1) // {2,3} isolated
	g := b.MustBuild()
	dist := g.BFSFrom([]int{0})
	if dist[2] != -1 || dist[3] != -1 {
		t.Error("unreachable nodes should have distance -1")
	}
	if g.Connected() {
		t.Error("graph should be disconnected")
	}
	if _, err := g.Diameter(); err == nil {
		t.Error("Diameter should fail on disconnected graph")
	}
	if g.Eccentricity(0) != -1 {
		t.Error("eccentricity should be -1 when nodes unreachable")
	}
}

func TestBFSTree(t *testing.T) {
	g := Grid(3, 3)
	parent, dist := g.BFSTree(0)
	if parent[0] != -1 || dist[0] != 0 {
		t.Fatal("root malformed")
	}
	for v := 1; v < g.N(); v++ {
		p := parent[v]
		if p == -1 {
			t.Fatalf("node %d unreachable", v)
		}
		if dist[v] != dist[p]+1 {
			t.Fatalf("BFS level invariant violated at %d", v)
		}
		if !g.HasEdge(v, p) {
			t.Fatalf("parent edge {%d,%d} not in graph", v, p)
		}
	}
}

func TestDiameterKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path10", Path(10), 9},
		{"cycle10", Cycle(10), 5},
		{"cycle11", Cycle(11), 5},
		{"complete8", Complete(8), 1},
		{"star9", Star(9), 2},
		{"grid4x7", Grid(4, 7), 9},
		{"single", NewBuilder(1).MustBuild(), 0},
	}
	for _, tc := range cases {
		d, err := tc.g.Diameter()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d != tc.want {
			t.Errorf("%s: diameter = %d, want %d", tc.name, d, tc.want)
		}
	}
}

// TestDiameterMemo checks the value Diameter keeps: repeated calls, a
// disconnected graph, concurrent first calls, and the graphs Clone and
// Subgraph derive from a graph that has already computed its diameter.
func TestDiameterMemo(t *testing.T) {
	g := Grid(5, 9)
	for i := 0; i < 3; i++ {
		if d, err := g.Diameter(); d != 12 || err != nil {
			t.Fatalf("call %d: Diameter = %d, %v; want 12", i, d, err)
		}
	}
	if a := testing.AllocsPerRun(3, func() { g.Diameter() }); a != 0 {
		t.Errorf("a kept diameter allocates %.0f times per call, want 0", a)
	}

	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	split := b.MustBuild()
	for i := 0; i < 3; i++ {
		if _, err := split.Diameter(); !errors.Is(err, ErrDisconnected) {
			t.Fatalf("call %d on a disconnected graph: err = %v, want ErrDisconnected", i, err)
		}
	}

	fresh := RandomConnected(300, 0.02, rand.New(rand.NewSource(5)))
	want, _ := diameterReference(fresh)
	got := make([]int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = fresh.Diameter()
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Errorf("goroutine %d: Diameter = %d, want %d", i, d, want)
		}
	}

	// A clone shares the structure and the memo; a subgraph has its own.
	cycle := Cycle(8)
	if d, _ := cycle.Diameter(); d != 4 {
		t.Fatalf("cycle8: Diameter = %d, want 4", d)
	}
	if d, err := cycle.Clone().Diameter(); d != 4 || err != nil {
		t.Errorf("clone of cycle8: Diameter = %d, %v; want 4", d, err)
	}
	path, err := cycle.Subgraph(cycle.Edges()[1:]) // drop {0,1}: a path 1-2-…-7-0
	if err != nil {
		t.Fatal(err)
	}
	if d, err := path.Diameter(); d != 7 || err != nil {
		t.Errorf("cycle8 less an edge: Diameter = %d, %v; want 7", d, err)
	}
	apart, err := cycle.Subgraph(cycle.Edges()[2:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apart.Diameter(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("cycle8 less two edges: err = %v, want ErrDisconnected", err)
	}
	if d, err := split.Clone().Diameter(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("clone of a disconnected graph: Diameter = %d, %v; want ErrDisconnected", d, err)
	}
}

func TestGirthKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"tree", BinaryTree(15), -1},
		{"path", Path(6), -1},
		{"cycle5", Cycle(5), 5},
		{"cycle12", Cycle(12), 12},
		{"complete5", Complete(5), 3},
		{"K33", CompleteBipartite(3, 3), 4},
		{"grid", Grid(4, 4), 4},
		{"petersen-like(Q3)", Hypercube(3), 4},
	}
	for _, tc := range cases {
		if got := tc.g.Girth(); got != tc.want {
			t.Errorf("%s: girth = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestGirthWithPendantEdges(t *testing.T) {
	// A triangle with a pendant path: girth stays 3.
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	if got := b.MustBuild().Girth(); got != 3 {
		t.Errorf("girth = %d, want 3", got)
	}
}

func TestAwakeDistance(t *testing.T) {
	g := Path(10)
	if got := g.AwakeDistance([]int{0}); got != 9 {
		t.Errorf("ρ_awk({0}) = %d, want 9", got)
	}
	if got := g.AwakeDistance([]int{5}); got != 5 {
		t.Errorf("ρ_awk({5}) = %d, want 5", got)
	}
	if got := g.AwakeDistance([]int{0, 9}); got != 4 {
		t.Errorf("ρ_awk({0,9}) = %d, want 4", got)
	}
	all := make([]int, 10)
	for i := range all {
		all[i] = i
	}
	if got := g.AwakeDistance(all); got != 0 {
		t.Errorf("ρ_awk(all) = %d, want 0", got)
	}
	if got := g.AwakeDistance(nil); got != -1 {
		t.Errorf("ρ_awk(∅) = %d, want -1", got)
	}
}

func TestAwakeDistanceDisconnected(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if got := g.AwakeDistance([]int{0}); got != -1 {
		t.Errorf("ρ_awk on disconnected = %d, want -1", got)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 5)
	g := b.MustBuild()
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Errorf("component 0 = %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 3 {
		t.Errorf("component 1 = %v", comps[1])
	}
	if len(comps[2]) != 2 {
		t.Errorf("component 2 = %v", comps[2])
	}
}

func TestAwakeDistanceMatchesFloodingTime(t *testing.T) {
	// ρ_awk is defined (§1.2) as the flooding time; cross-check against
	// an independent BFS for random graphs and awake sets.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		g := RandomConnected(60, 0.05, rng)
		k := 1 + rng.Intn(5)
		awake := rng.Perm(60)[:k]
		rho := g.AwakeDistance(awake)
		dist := g.BFSFrom(awake)
		max := 0
		for _, d := range dist {
			if d > max {
				max = d
			}
		}
		if rho != max {
			t.Fatalf("trial %d: ρ_awk=%d, BFS max=%d", trial, rho, max)
		}
	}
}

// TestGeodesicMiddleOnGrids checks Diameter's midpoint on lattices: on a
// grid a walk from b along one shortest path follows the border to a node
// as far from the far corner as the diameter, while the middle node of
// the level lies within one hop of the centre.
func TestGeodesicMiddleOnGrids(t *testing.T) {
	for _, g := range []*Graph{Grid(32, 32), Grid(64, 128), Grid(20, 40)} {
		n := g.N()
		s := newBFSScratch(n)
		s.run(g, 0)
		a := s.queue[n-1]
		ecc, _ := s.run(g, int(a))
		b := s.queue[n-1]
		mid := geodesicMiddle(g, s.dist, make([]int32, n), b, ecc)
		if e := g.Eccentricity(int(mid)); e > int(ecc-ecc/2)+1 {
			t.Errorf("%d-node grid: middle node %d has eccentricity %d, diameter %d", n, mid, e, ecc)
		}
	}
}
