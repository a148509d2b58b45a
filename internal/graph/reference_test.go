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

// girthReference is the per-source Girth: a BFS from every node that
// records the shortest closed walk through a non-tree edge, cut off once
// it is deeper than half the best cycle found.
func girthReference(g *Graph) int {
	best := -1
	n := g.N()
	dist := make([]int, n)
	par := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		dist[s] = 0
		par[s] = -1
		queue = append(queue, int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if best != -1 && dist[v] >= (best+1)/2 {
				break // no shorter cycle through s can be found deeper
			}
			for _, w := range g.Neighbors(int(v)) {
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					par[w] = v
					queue = append(queue, w)
				} else if w != par[v] {
					// Cycle through s of length dist[v]+dist[w]+1.
					if c := dist[v] + dist[w] + 1; best == -1 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// differentialGraphs is the shape zoo both batched kernels are checked on:
// batch boundaries (n around 64), off-centre midpoints (lollipop,
// caterpillar), the no-early-exit cycle, lattices (grids whose midpoint is
// the middle node of a wide level), dense and sparse random graphs, and a
// disconnected graph.
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
		"grid32x32":    Grid(32, 32),
		"grid14x29":    Grid(14, 29),
		"grid35x16":    Grid(35, 16),
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

// TestMaxEccentricityDirections runs the batched BFS behind Diameter on
// batches of 1, 63 and 64 sources with every level top-down, every level
// bottom-up, and switching, and compares each level count with the largest
// scalar-BFS eccentricity in the batch. Besides the differential set, a
// dense random graph, a hypercube and a clique make a full 64-source batch
// switch to bottom-up levels. Every call must leave the scratch zeroed.
func TestMaxEccentricityDirections(t *testing.T) {
	gs := differentialGraphs()
	gs["connected300:0.1"] = RandomConnected(300, 0.1, rand.New(rand.NewSource(3)))
	gs["hypercube9"] = Hypercube(9)
	gs["complete100"] = Complete(100)
	for name, g := range gs {
		n := g.N()
		if n == 0 || !g.Connected() {
			continue
		}
		words := make([]uint64, 3*n)
		ids := make([]int32, 2*n)
		ms := msbfs{
			seen: words[:n], visit: words[n : 2*n], next: words[2*n:],
			cur: ids[:0:n], nxt: ids[n : n : 2*n],
		}
		s := newBFSScratch(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for _, k := range []int{1, 63, 64} {
			k = min(k, n)
			batch := make([]int32, k)
			want := 0
			for i, v := range rng.Perm(n)[:k] {
				batch[i] = int32(v)
				want = max(want, eccentricity(g, s, v))
			}
			for _, dir := range []direction{topDown, bottomUp, switching} {
				if got := ms.maxEccentricity(g, batch, dir); got != want {
					t.Errorf("%s: %d sources, direction %d: %d levels, largest eccentricity %d", name, k, dir, got, want)
				}
				if i := slices.IndexFunc(words, func(w uint64) bool { return w != 0 }); i >= 0 {
					t.Fatalf("%s: %d sources, direction %d: scratch word %d left %#x", name, k, dir, i, words[i])
				}
			}
		}
	}
}

// TestGreedySpannerMatchesReference compares the kept edges, in order,
// with the per-edge reference at k = 1 (every edge kept), 2, 3, ⌈log₂ n⌉
// and n + 1 (the limit clamped to n), over the differential set and the
// spanner's own shapes: graphs of interleaved components, where the
// forest keeps edges across components while u's search is running;
// forests; grids at large k, where the forest's bounds rarely decide;
// RandomConnected at k = ⌈log₂ n⌉, where they decide nearly everything;
// and many small dense graphs.
func TestGreedySpannerMatchesReference(t *testing.T) {
	gs := differentialGraphs()
	rng := rand.New(rand.NewSource(28))
	for _, parts := range []int{2, 3, 5} {
		gs[fmt.Sprintf("interleaved%d", parts)] = interleaved(150, parts, 0.08, rng)
	}
	gs["interleaved-sparse"] = interleaved(300, 4, 0.01, rng)
	for _, n := range []int{40, 200} {
		gs[fmt.Sprintf("forest%d", n)] = forest(n, rng)
	}
	for _, n := range []int{256, 512} {
		gs[fmt.Sprintf("connected%d:0.05", n)] = RandomConnected(n, 0.05, rng)
	}
	for name, g := range gs {
		logn := max(1, bits.Len(uint(max(g.N(), 1)-1))) // ⌈log₂ n⌉
		for _, k := range []int{1, 2, 3, logn, g.N() + 1} {
			checkSpannerDifferential(t, fmt.Sprintf("%s/k=%d", name, k), g, k)
		}
	}
	for _, g := range []*Graph{Grid(12, 30), Torus(10, 14)} {
		for _, k := range []int{6, 10, 20} {
			checkSpannerDifferential(t, fmt.Sprintf("%dx%d lattice/k=%d", g.N(), g.M(), k), g, k)
		}
	}
	// Many small dense graphs, connected or not, where a bound too high to
	// tell, or a kept edge across components after u's search has started,
	// decides a later edge of u.
	for i := 0; i < 1000; i++ {
		n := 3 + rng.Intn(14)
		p := []float64{0.15, 0.25, 0.4, 0.6}[i%4]
		g := RandomGNP(n, p, rng)
		if i%2 == 1 {
			g = RandomConnected(n, p, rng)
		}
		for k := 1; k <= 4; k++ {
			checkSpannerDifferential(t, fmt.Sprintf("small%d:n%d:%g/k=%d", i, n, p, k), g, k)
		}
	}
}

// interleaved is parts random connected graphs on n nodes, node v in part
// v mod parts, so the scan meets every part from its first nodes on.
func interleaved(n, parts int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for c := 0; c < parts; c++ {
		size := (n - c + parts - 1) / parts
		for _, e := range RandomConnected(size, p, rng).Edges() {
			b.AddEdge(e[0]*parts+c, e[1]*parts+c)
		}
	}
	return b.MustBuild()
}

// TestGreedySpannerWorkCounts pins how many edges of one table1-size graph
// the forest decides and how many go to the bounded BFS, as
// TestEventHeapWorkCounts pins the event queue's work: a change that loses
// the forest's shortcut fails here, not only in a benchmark. The spanner
// is a spanning tree, and the forest decides about 97 % of the edges.
func TestGreedySpannerWorkCounts(t *testing.T) {
	g := RandomConnected(2048, 0.05, rand.New(rand.NewSource(1)))
	kept, searched := greedySpannerEdges(g, 11)
	if len(kept) != 2047 || g.M()-searched != 103441 || searched != 3128 {
		t.Errorf("kept %d edges; the forest decided %d of %d, the search %d; want 2047 kept, 103441 and 3128", len(kept), g.M()-searched, g.M(), searched)
	}
}

// checkSpannerDifferential compares the kept edges in order, the built
// spanner, and VerifyStretch's verdicts with the references.
func checkSpannerDifferential(t *testing.T, name string, g *Graph, k int) {
	t.Helper()
	want := greedySpannerReference(g, k)
	got, _ := greedySpannerEdges(g, k)
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

// girthGraphs adds Girth's own cases to the shape zoo: the incidence
// graphs table1's Theorem 2 row measures, cycles around the batch size,
// lattices, trees, cycles with pendant trees (peeled before the search),
// graphs whose shortest cycle is found only by a later batch, and random
// graphs from forests to dense.
func girthGraphs() map[string]*Graph {
	gs := differentialGraphs()
	for _, q := range []int{2, 3, 5, 7} {
		gs[fmt.Sprintf("pg2:%d", q)] = ProjectivePlaneIncidence(q)
	}
	for _, q := range []int{2, 3} {
		gs[fmt.Sprintf("gq:%d", q)] = SymplecticGQIncidence(q)
	}
	for _, n := range []int{3, 4, 5, 63, 64, 65, 127, 128, 129} {
		gs[fmt.Sprintf("cycle%d", n)] = Cycle(n)
	}
	gs["complete4"] = Complete(4)
	gs["bipartite3x5"] = CompleteBipartite(3, 5)
	gs["bipartite1x9"] = CompleteBipartite(1, 9)
	gs["wheel4"] = Wheel(4)
	gs["grid2x2"] = Grid(2, 2)
	gs["grid30x30"] = Grid(30, 30)
	gs["torus3x3"] = Torus(3, 3)
	gs["torus4x9"] = Torus(4, 9)
	gs["torus9x11"] = Torus(9, 11)
	gs["hypercube4"] = Hypercube(4)
	gs["binary1023"] = BinaryTree(1023)
	gs["kary200:3"] = KAryTree(200, 3)
	gs["debruijn6"] = DeBruijn(6)

	rng := rand.New(rand.NewSource(16))
	// Cycles with a random tree hung on every node.
	for _, c := range []int{3, 8, 65} {
		b := NewBuilder(4 * c)
		for v := 0; v < c; v++ {
			b.AddEdge(v, (v+1)%c)
		}
		for v := c; v < 4*c; v++ {
			b.AddEdge(v, rng.Intn(v))
		}
		gs[fmt.Sprintf("cycle%d+trees", c)] = b.MustBuild()
	}
	// A 100-cycle, whose first batch sets best = 100, beside a 5-cycle
	// and a triangle hanging off a long path, both on higher nodes.
	b := NewBuilder(200)
	for v := 0; v < 100; v++ {
		b.AddEdge(v, (v+1)%100)
	}
	for v := 150; v < 155; v++ {
		b.AddEdge(v, 150+(v-149)%5)
	}
	for v := 160; v < 199; v++ {
		b.AddEdge(v, v+1)
	}
	b.AddEdge(197, 199)
	gs["cycle100|cycle5|lollipop"] = b.MustBuild()
	// A theta graph: two hubs joined by paths of 40, 70 and 90 edges, so
	// the shortest cycle (110) runs through nodes of two batches.
	b = NewBuilder(2 + 39 + 69 + 89)
	next := 2
	for _, length := range []int{40, 70, 90} {
		prev := 0
		for i := 1; i < length; i++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
		b.AddEdge(prev, 1)
	}
	gs["theta40:70:90"] = b.MustBuild()

	for _, n := range []int{10, 64, 65, 130, 200} {
		for _, p := range []float64{0.005, 0.02, 0.05, 0.3, 0.9} {
			gs[fmt.Sprintf("gnp%d:%g", n, p)] = RandomGNP(n, p, rng)
		}
		gs[fmt.Sprintf("forest%d", n)] = forest(n, rng)
	}
	for i := 0; i < 200; i++ {
		n := 3 + rng.Intn(40)
		p := []float64{0.03, 0.08, 0.15, 0.4}[i%4]
		gs[fmt.Sprintf("small%d:gnp%d:%g", i, n, p)] = RandomGNP(n, p, rng)
	}
	return gs
}

// forest is n nodes split into random trees.
func forest(n int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		if rng.Intn(5) != 0 {
			b.AddEdge(v, rng.Intn(v))
		}
	}
	return b.MustBuild()
}

func TestGirthMatchesReference(t *testing.T) {
	for name, g := range girthGraphs() {
		if got, want := g.Girth(), girthReference(g); got != want {
			t.Errorf("%s: Girth = %d, reference %d", name, got, want)
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
	// Two adjacent hubs with 35 and 70 leaves (D = 3): the midpoint is
	// the larger hub, and Diameter's one batch of 64 sources, the other
	// hub's 35 leaves and 29 of the nodes next to the midpoint, starts
	// bottom-up.
	stars := []byte{106, 0, 1} // n = 107, hubs 0 and 1
	for v := 2; v < 107; v++ {
		hub := byte(0)
		if v >= 37 {
			hub = 1
		}
		stars = append(stars, hub, byte(v))
	}
	f.Add(stars, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, _ uint8) {
		g := fuzzGraph(data)
		want, wantErr := diameterReference(g)
		got, err := g.Diameter()
		if got != want || err != wantErr {
			t.Fatalf("n=%d m=%d: Diameter = %d, %v; reference %d, %v", g.N(), g.M(), got, err, want, wantErr)
		}
	})
}

func FuzzGirth(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, _ uint8) {
		g := fuzzGraph(data)
		if got, want := g.Girth(), girthReference(g); got != want {
			t.Fatalf("n=%d m=%d: Girth = %d, reference %d", g.N(), g.M(), got, want)
		}
	})
}

func FuzzGreedySpanner(f *testing.F) {
	fuzzSeeds(f)
	// Two components interleaved by parity, a 6-cycle with a chord on the
	// even nodes and a 5-cycle on the odd ones, so the forest keeps edges
	// across components after u's search has started.
	f.Add([]byte{12, 0, 2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 0, 0, 6, 1, 3, 3, 5, 5, 7, 7, 9, 9, 1}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		g := fuzzGraph(data)
		checkSpannerDifferential(t, fmt.Sprintf("n=%d m=%d", g.N(), g.M()), g, int(k)%8+1)
	})
}
