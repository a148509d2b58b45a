package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// diameterReference is the definition Diameter must match: a BFS from
// every node, the largest eccentricity wins.
func diameterReference(g *Graph) (int, error) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	s := newBFSScratch(n)
	diam := 0
	for v := 0; v < n; v++ {
		ecc := eccentricity(g, s, v)
		if ecc == -1 {
			return 0, ErrDisconnected
		}
		diam = max(diam, ecc)
	}
	return diam, nil
}

// greedySpannerReference is the edge-by-edge greedy spanner: for each edge
// of Edges in order, a fresh BFS over the spanner so far, bounded at
// 2k−1, decides whether the edge is kept. It returns the kept edges in
// order.
func greedySpannerReference(g *Graph, k int) [][2]int {
	stretch := 2*k - 1
	n := g.N()
	adj := make([][]int32, n)
	var kept [][2]int
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if distWithinAdj(adj, u, v, stretch) == -1 {
			adj[u] = append(adj[u], int32(v))
			adj[v] = append(adj[v], int32(u))
			kept = append(kept, e)
		}
	}
	return kept
}

// verifyStretchReference checks every edge of g with its own bounded BFS
// over s.
func verifyStretchReference(g, s *Graph, t int) error {
	if g.N() != s.N() {
		return fmt.Errorf("graph: node count mismatch %d vs %d", g.N(), s.N())
	}
	adj := make([][]int32, s.N())
	for v := range adj {
		adj[v] = s.Neighbors(v)
	}
	for _, e := range g.Edges() {
		if distWithinAdj(adj, e[0], e[1], t) == -1 {
			return fmt.Errorf("graph: edge {%d,%d} stretched beyond %d in spanner", e[0], e[1], t)
		}
	}
	return nil
}

// distWithinAdj returns dist(u,v) in the adjacency lists if it is at most
// limit, else -1.
func distWithinAdj(adj [][]int32, u, v, limit int) int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	queue := []int32{int32(u)}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		if dist[x] >= limit {
			return -1
		}
		for _, y := range adj[x] {
			if dist[y] != -1 {
				continue
			}
			if int(y) == v {
				return dist[x] + 1
			}
			dist[y] = dist[x] + 1
			queue = append(queue, y)
		}
	}
	return -1
}

// differentialGraphs is the shape zoo both batched kernels are checked on:
// batch boundaries (n around 64), off-centre midpoints (lollipop,
// caterpillar), the no-early-exit cycle, lattices, dense and sparse random
// graphs, and a disconnected graph.
func differentialGraphs() map[string]*Graph {
	rng := rand.New(rand.NewSource(21))
	gs := map[string]*Graph{
		"zero":         {},
		"n0":           NewBuilder(0).MustBuild(),
		"n1":           NewBuilder(1).MustBuild(),
		"n2":           Path(2),
		"path63":       Path(63),
		"path64":       Path(64),
		"path65":       Path(65),
		"path129":      Path(129),
		"cycle63":      Cycle(63),
		"cycle64":      Cycle(64),
		"cycle65":      Cycle(65),
		"cycle129":     Cycle(129),
		"cycle300":     Cycle(300),
		"star40":       Star(40),
		"wheel33":      Wheel(33),
		"lollipop":     Lollipop(12, 40),
		"lollipop-big": Lollipop(60, 9),
		"caterpillar":  Caterpillar(30, 3),
		"grid9x14":     Grid(9, 14),
		"grid1x20":     Grid(1, 20),
		"torus7x10":    Torus(7, 10),
		"hypercube7":   Hypercube(7),
		"complete30":   Complete(30),
		"binary129":    BinaryTree(129),
		"binary200":    BinaryTree(200),
		"barbell":      Barbell(10, 7),
		"tree150":      RandomTree(150, rng),
		"tree65":       RandomTree(65, rng),
	}
	for _, n := range []int{63, 64, 65, 129} {
		gs[fmt.Sprintf("connected%d:0.05", n)] = RandomConnected(n, 0.05, rng)
	}
	for _, p := range []float64{0, 0.01, 0.05, 0.2, 0.6} {
		gs[fmt.Sprintf("connected200:%g", p)] = RandomConnected(200, p, rng)
	}
	// Many small graphs, where the stopping rule's boundary (the largest
	// eccentricity found equal to 2h or 2h−1) is common.
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(14)
		p := []float64{0, 0.1, 0.3, 0.6}[i%4]
		gs[fmt.Sprintf("small%d:connected%d:%g", i, n, p)] = RandomConnected(n, p, rng)
	}
	b := NewBuilder(70) // two components and an isolated node
	for v := 1; v < 40; v++ {
		b.AddEdge(v-1, v)
	}
	for v := 41; v < 69; v++ {
		b.AddEdge(v-1, v)
	}
	gs["disconnected"] = b.MustBuild()
	return gs
}

func TestDiameterMatchesReference(t *testing.T) {
	for name, g := range differentialGraphs() {
		want, wantErr := diameterReference(g)
		got, err := g.Diameter()
		if got != want || err != wantErr {
			t.Errorf("%s: Diameter = %d, %v; reference %d, %v", name, got, err, want, wantErr)
		}
	}
}

func TestGreedySpannerMatchesReference(t *testing.T) {
	for name, g := range differentialGraphs() {
		logn := max(1, bits.Len(uint(max(g.N(), 1)-1))) // ⌈log₂ n⌉
		for _, k := range []int{1, 2, 3, logn} {
			checkSpannerDifferential(t, fmt.Sprintf("%s/k=%d", name, k), g, k)
		}
	}
}

// checkSpannerDifferential compares the kept edges in order, the built
// spanner, and VerifyStretch's verdicts with the references.
func checkSpannerDifferential(t *testing.T, name string, g *Graph, k int) {
	t.Helper()
	want := greedySpannerReference(g, k)
	got := greedySpannerEdges(g, k)
	if !slices.Equal(got, want) {
		t.Errorf("%s: kept %d edges %v, reference kept %d edges %v", name, len(got), got, len(want), want)
		return
	}
	s, err := GreedySpanner(g, k)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(s.Edges(), want) {
		t.Errorf("%s: spanner edges differ from the kept list", name)
	}
	for _, tt := range []int{0, 1, 2*k - 2, 2*k - 1} {
		got, want := VerifyStretch(g, s, tt), verifyStretchReference(g, s, tt)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: VerifyStretch(t=%d) = %v, reference %v", name, tt, got, want)
		}
	}
}

// fuzzGraph builds a graph from fuzz bytes: the first byte picks n, each
// later pair an edge (self-loops and repeats dropped).
func fuzzGraph(data []byte) *Graph {
	if len(data) == 0 {
		return NewBuilder(0).MustBuild()
	}
	n := int(data[0])%150 + 1
	b := NewBuilder(n)
	seen := make(map[[2]int]bool)
	for i := 1; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

// fuzzSeeds are the corpus entries of both fuzz targets: a path, a cycle,
// a two-component graph and a 70-node cycle with chords.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4}, uint8(1))
	f.Add([]byte{6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}, uint8(2))
	f.Add([]byte{8, 0, 1, 1, 2, 4, 5, 6, 7}, uint8(3))
	ring := []byte{70}
	for v := 0; v < 70; v++ {
		ring = append(ring, byte(v), byte((v+1)%70))
	}
	ring = append(ring, 0, 35, 10, 50, 20, 64)
	f.Add(ring, uint8(4))
}

func FuzzDiameter(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, _ uint8) {
		g := fuzzGraph(data)
		want, wantErr := diameterReference(g)
		got, err := g.Diameter()
		if got != want || err != wantErr {
			t.Fatalf("n=%d m=%d: Diameter = %d, %v; reference %d, %v", g.N(), g.M(), got, err, want, wantErr)
		}
	})
}

func FuzzGreedySpanner(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		g := fuzzGraph(data)
		checkSpannerDifferential(t, fmt.Sprintf("n=%d m=%d", g.N(), g.M()), g, int(k)%8+1)
	})
}
