package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// TestDiameterAllocs pins the scratch-reuse property of the BFS core: a
// Diameter call allocates one scratch (a small constant number of
// allocations) regardless of graph size, instead of a queue and distance
// slice per root as the old per-call BFS did.
func TestDiameterAllocs(t *testing.T) {
	small := Torus(6, 6)
	big := Torus(20, 20)
	allocs := func(g *Graph) float64 {
		return testing.AllocsPerRun(3, func() { g.Diameter() })
	}
	a, b := allocs(small), allocs(big)
	if a != b {
		t.Errorf("Diameter allocations scale with n: %.0f at n=%d, %.0f at n=%d (want equal)", a, small.N(), b, big.N())
	}
	if b > 4 {
		t.Errorf("Diameter allocates %.0f times per call, want the shared scratch only", b)
	}
}

func benchGraph(b *testing.B) *Graph {
	b.Helper()
	return RandomConnected(2000, 0.002, rand.New(rand.NewSource(7)))
}

// benchShapes are the Diameter and spanner benchmark graphs, named by
// their experiment spec (random graphs at seed 1, as ParseGraph builds
// them). connected:2048:0.05 is the largest table1 graph and
// connected:2048:0.01 the one five table1 rows share; there Diameter's
// batches switch to bottom-up levels. The hypercube has low degree and
// small diameter, so its batches switch too but a bottom-up scan seldom
// stops early. The path and grid are high-diameter lattices, which stay
// top-down; the cycle is Diameter's worst case, where every node has the
// same eccentricity and no early exit applies. The spanner runs on the
// largest table1 graph and the grid only.
var benchShapes = []struct {
	name    string
	build   func() *Graph
	spanner bool
}{
	{"connected:2048:0.05", func() *Graph { return RandomConnected(2048, 0.05, rand.New(rand.NewSource(1))) }, true},
	{"connected:2048:0.01", func() *Graph { return RandomConnected(2048, 0.01, rand.New(rand.NewSource(1))) }, false},
	{"hypercube:13", func() *Graph { return Hypercube(13) }, false},
	{"path:8192", func() *Graph { return Path(8192) }, false},
	{"grid:64x128", func() *Graph { return Grid(64, 128) }, true},
	{"cycle:8192", func() *Graph { return Cycle(8192) }, false},
}

var benchSink int

func BenchmarkDiameter(b *testing.B) {
	for _, shape := range benchShapes {
		g := shape.build()
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := g.Diameter()
				if err != nil {
					b.Fatal(err)
				}
				benchSink = d
			}
		})
	}
}

// girthShapes are the Girth benchmark graphs: the largest Theorem 2
// incidence graph table1 measures (PG(2,37), girth 6) and a generalized
// quadrangle (girth 8), the cycle (n/2 levels in one batch, then the rest
// peels), a tree (no 2-core) and a sparse random graph. The file uses only
// the public API, so it runs unchanged on older checkouts.
var girthShapes = []struct {
	name  string
	build func() *Graph
}{
	{"pg2:37", func() *Graph { return ProjectivePlaneIncidence(37) }},
	{"gq:5", func() *Graph { return SymplecticGQIncidence(5) }},
	{"cycle:8192", func() *Graph { return Cycle(8192) }},
	{"binary:16383", func() *Graph { return BinaryTree(16383) }},
	{"connected:2048:0.01", func() *Graph { return RandomConnected(2048, 0.01, rand.New(rand.NewSource(1))) }},
}

func BenchmarkGirth(b *testing.B) {
	for _, shape := range girthShapes {
		g := shape.build()
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = g.Girth()
			}
		})
	}
}

// BenchmarkGreedySpanner runs the spanner oracle at k = 2 and at
// k = ⌈log₂ n⌉ (table1's Theorem 6 and Corollary 2 rows) on a table1 graph
// and a sparse lattice.
func BenchmarkGreedySpanner(b *testing.B) {
	for _, shape := range benchShapes {
		if !shape.spanner {
			continue
		}
		g := shape.build()
		for _, k := range []int{2, bits.Len(uint(g.N() - 1))} {
			b.Run(fmt.Sprintf("%s/k=%d", shape.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := GreedySpanner(g, k)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = s.M()
				}
			})
		}
	}
}

func BenchmarkEccentricity(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Eccentricity(0)
	}
}

func BenchmarkBuildComplete(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Complete(512)
	}
}

func BenchmarkBuildTorusImplicit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Torus(64, 64)
	}
}
