package graph

import (
	"fmt"
	"math/rand"
)

// Path returns the path graph on n nodes: 0-1-2-…-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.MustBuild()
}

// Cycle returns the cycle graph on n ≥ 3 nodes.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.MustBuild()
}

// Star returns the star graph on n nodes with center 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: complete graph needs n >= 0, got %d", n))
	}
	b := newSizedBuilder(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// CompleteBipartite returns K_{a,b}: nodes 0..a-1 on the left side, nodes
// a..a+b-1 on the right side.
func CompleteBipartite(a, b int) *Graph {
	if a < 0 || b < 0 {
		panic(fmt.Sprintf("graph: complete bipartite graph needs a,b >= 0, got %d,%d", a, b))
	}
	bld := newSizedBuilder(a+b, a*b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bld.AddEdge(u, v)
		}
	}
	return bld.MustBuild()
}

// gridNodes validates r×c dimensions for the grid-shaped generators:
// non-negative and, before any multiplication can wrap, small enough that
// the node count fits the int32 index space.
func gridNodes(name string, r, c int) int {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("graph: %s needs non-negative dimensions, got %dx%d", name, r, c))
	}
	if c != 0 && r > maxDirected/c {
		panic(fmt.Sprintf("graph: %s %dx%d overflows: the node count exceeds the int32 index space", name, r, c))
	}
	return r * c
}

// Grid returns the r×c grid graph. Node (i, j) has index i*c + j.
func Grid(r, c int) *Graph {
	n := gridNodes("grid", r, c)
	b := NewBuilder(n)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				b.AddEdge(v, v+1)
			}
			if i+1 < r {
				b.AddEdge(v, v+c)
			}
		}
	}
	return b.MustBuild()
}

// Torus returns the r×c torus (grid with wraparound). Node (i, j) has
// index i*c + j. Requires r, c ≥ 3 so the wrap edges do not duplicate grid
// edges.
func Torus(r, c int) *Graph {
	n := gridNodes("torus", r, c)
	if r < 3 || c < 3 {
		panic(fmt.Sprintf("graph: torus needs r,c >= 3, got %d,%d", r, c))
	}
	b := newSizedBuilder(n, 2*n)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			b.AddEdge(v, i*c+(j+1)%c)
			b.AddEdge(v, ((i+1)%r)*c+j)
		}
	}
	return b.MustBuild()
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes: v and w are
// adjacent iff they differ in exactly one bit. The dimension is bounded to
// 26: at d = 27 the d·2^d directed edges already exceed the int32 index
// space (and an unchecked 1 << d would silently wrap for d ≥ 63).
func Hypercube(d int) *Graph {
	if d < 0 || d > 26 {
		panic(fmt.Sprintf("graph: hypercube dimension %d out of range [0,26] (d·2^d directed edges must fit int32 indices)", d))
	}
	n := 1 << d
	b := newSizedBuilder(n, d*n/2)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			if w := v ^ 1<<bit; v < w {
				b.AddEdge(v, w)
			}
		}
	}
	return b.MustBuild()
}

// Lollipop returns a clique of size k with a pendant path of length tail
// attached to clique node 0. This is the paper's example (§1.3 footnote) of
// a constant-expansion graph on which push-only gossip takes Ω(n) time.
func Lollipop(k, tail int) *Graph {
	b := NewBuilder(k + tail)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(u, v)
		}
	}
	prev := 0
	for t := 0; t < tail; t++ {
		b.AddEdge(prev, k+t)
		prev = k + t
	}
	return b.MustBuild()
}

// Barbell returns two k-cliques joined by a path of length bridge ≥ 1.
func Barbell(k, bridge int) *Graph {
	n := 2*k + bridge - 1
	b := NewBuilder(n)
	addClique := func(off int) {
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				b.AddEdge(off+u, off+v)
			}
		}
	}
	addClique(0)
	addClique(k + bridge - 1)
	prev := k - 1 // rightmost node of left clique
	for t := 0; t < bridge; t++ {
		next := k + t
		if t == bridge-1 {
			next = k + bridge - 1 // first node of right clique
		}
		b.AddEdge(prev, next)
		prev = next
	}
	return b.MustBuild()
}

// BinaryTree returns the complete binary tree on n nodes with root 0, where
// node v has children 2v+1 and 2v+2.
func BinaryTree(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		if c := 2*v + 1; c < n {
			b.AddEdge(v, c)
		}
		if c := 2*v + 2; c < n {
			b.AddEdge(v, c)
		}
	}
	return b.MustBuild()
}

// RandomTree returns a uniformly random labeled tree on n nodes, built via
// a random Prüfer sequence.
func RandomTree(n int, rng *rand.Rand) *Graph {
	if n <= 1 {
		return NewBuilder(n).MustBuild()
	}
	if n == 2 {
		b := NewBuilder(2)
		b.AddEdge(0, 1)
		return b.MustBuild()
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	deg := make([]int, n)
	for v := range deg {
		deg[v] = 1
	}
	for _, v := range prufer {
		deg[v]++
	}
	b := NewBuilder(n)
	// Standard Prüfer decoding with a pointer+leaf scan.
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		b.AddEdge(leaf, v)
		deg[v]--
		if deg[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	b.AddEdge(leaf, n-1)
	return b.MustBuild()
}

// RandomGNP returns an Erdős–Rényi G(n, p) graph.
func RandomGNP(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// RandomConnected returns a connected random graph: a uniform random tree
// plus each non-tree edge independently with probability p.
//
// The pairs {u, v}, u < v, are drawn in lexicographic order, one draw per
// non-tree pair. u's tree neighbours are sorted, so the draws run over the
// gaps between those above u, and no pair needs an edge lookup.
func RandomConnected(n int, p float64, rng *rand.Rand) *Graph {
	t := RandomTree(n, rng)
	b := NewBuilder(n)
	for _, e := range t.Edges() {
		b.AddEdge(e[0], e[1])
	}
	draw := func(u, from, to int) {
		for v := from; v < to; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	for u := 0; u < n; u++ {
		v := u + 1
		for _, w := range t.Neighbors(u) {
			if int(w) > u {
				draw(u, v, int(w))
				v = int(w) + 1
			}
		}
		draw(u, v, n)
	}
	return b.MustBuild()
}

// RandomBipartiteRegular returns a simple d-regular bipartite graph on
// n+n nodes (left 0..n-1, right n..2n-1), built as a union of d random
// perfect matchings. Each matching is drawn by running Kuhn's
// augmenting-path algorithm with randomized scan orders over the
// "availability" graph of pairs not yet used; after r rounds that graph is
// (n−r)-regular, so a perfect matching always exists (Hall's theorem) and
// the construction never dead-ends — including the extreme d = n, which
// yields the complete bipartite graph. Requires d ≤ n.
func RandomBipartiteRegular(n, d int, rng *rand.Rand) *Graph {
	if d > n {
		panic(fmt.Sprintf("graph: bipartite regular needs d <= n, got d=%d n=%d", d, n))
	}
	used := make([]map[int]bool, n)
	for i := range used {
		used[i] = make(map[int]bool, d)
	}
	b := NewBuilder(2 * n)
	matchR := make([]int, n) // right j -> matched left i
	visited := make([]bool, n)
	rightOrder := make([]int, n)

	var try func(i int) bool
	try = func(i int) bool {
		off := rng.Intn(n)
		for t := 0; t < n; t++ {
			j := rightOrder[(off+t)%n]
			if visited[j] || used[i][j] {
				continue
			}
			visited[j] = true
			if matchR[j] == -1 || try(matchR[j]) {
				matchR[j] = i
				return true
			}
		}
		return false
	}

	for r := 0; r < d; r++ {
		for j := range matchR {
			matchR[j] = -1
			rightOrder[j] = j
		}
		rng.Shuffle(n, func(a, b int) { rightOrder[a], rightOrder[b] = rightOrder[b], rightOrder[a] })
		for _, i := range rng.Perm(n) {
			for j := range visited {
				visited[j] = false
			}
			if !try(i) {
				// Unreachable: the availability graph is (n-r)-regular.
				panic("graph: random bipartite regular: no augmenting path")
			}
		}
		for j, i := range matchR {
			used[i][j] = true
			b.AddEdge(i, n+j)
		}
	}
	return b.MustBuild()
}

// ProjectivePlaneIncidence returns the point–line incidence graph of the
// projective plane PG(2, q) for a prime q: a (q+1)-regular bipartite graph
// on 2(q²+q+1) nodes with girth 6. Points occupy indices 0..N-1 and lines
// indices N..2N-1 where N = q²+q+1. It serves as the explicit high-girth
// regular bipartite substrate for the 𝒢_k lower-bound family.
func ProjectivePlaneIncidence(q int) *Graph {
	if q < 2 || !isPrime(q) {
		panic(fmt.Sprintf("graph: projective plane needs a prime order, got %d", q))
	}
	// Points and lines of PG(2,q) are both the 1-dimensional and
	// 2-dimensional subspaces of F_q^3; we enumerate canonical
	// representatives of projective triples.
	reps := projectivePoints(q)
	nPts := len(reps) // q^2+q+1
	index := make(map[[3]int]int, nPts)
	for i, p := range reps {
		index[p] = i
	}
	b := NewBuilder(2 * nPts)
	// Point p lies on line l iff p·l ≡ 0 (mod q). Lines use the same
	// canonical representatives as points (self-duality of PG(2,q)).
	for li, l := range reps {
		for pi, p := range reps {
			dot := (p[0]*l[0] + p[1]*l[1] + p[2]*l[2]) % q
			if dot == 0 {
				b.AddEdge(pi, nPts+li)
			}
		}
	}
	return b.MustBuild()
}

// projectivePoints enumerates canonical representatives of the projective
// points of PG(2,q): triples whose first nonzero coordinate is 1.
func projectivePoints(q int) [][3]int {
	var reps [][3]int
	reps = append(reps, [3]int{0, 0, 1})
	for z := 0; z < q; z++ {
		reps = append(reps, [3]int{0, 1, z})
	}
	for y := 0; y < q; y++ {
		for z := 0; z < q; z++ {
			reps = append(reps, [3]int{1, y, z})
		}
	}
	return reps
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// Caterpillar returns a path of length spine with legs pendant nodes
// attached to every spine node. Useful as a tree workload whose BFS-tree
// child counts vary widely.
func Caterpillar(spine, legs int) *Graph {
	n := spine + spine*legs
	b := NewBuilder(n)
	for v := 0; v+1 < spine; v++ {
		b.AddEdge(v, v+1)
	}
	next := spine
	for v := 0; v < spine; v++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(v, next)
			next++
		}
	}
	return b.MustBuild()
}

// ShuffleIDs assigns the IDs {0..n-1} to node indices according to a random
// permutation drawn from rng, returning the graph itself for chaining.
func ShuffleIDs(g *Graph, rng *rand.Rand) *Graph {
	n := g.N()
	ids := make([]NodeID, n)
	perm := rng.Perm(n)
	for v := 0; v < n; v++ {
		ids[v] = NodeID(perm[v])
	}
	if err := g.SetIDs(ids); err != nil {
		panic(err) // unreachable: permutation IDs are unique
	}
	return g
}
