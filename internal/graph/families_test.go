package graph

import (
	"strings"
	"testing"
)

// buildReference builds a graph from an edge list enumerated by hand, as an
// independent witness for the generators.
func buildReference(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: got n=%d m=%d, want n=%d m=%d", name, got.N(), got.M(), want.N(), want.M())
	}
	for v := 0; v < got.N(); v++ {
		g, w := got.Neighbors(v), want.Neighbors(v)
		if len(g) != len(w) {
			t.Fatalf("%s: node %d degree %d, want %d", name, v, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: node %d neighbors %v, want %v", name, v, g, w)
			}
		}
	}
}

// TestImplicitFamiliesMatchBuilder pins the regular families Complete,
// CompleteBipartite, Hypercube and Torus to edge lists enumerated here by
// hand, apart from the generators' own loops: it is their reference.
func TestImplicitFamiliesMatchBuilder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16} {
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, [2]int{u, v})
			}
		}
		sameGraph(t, "complete", Complete(n), buildReference(n, edges))
	}
	for _, dims := range [][2]int{{0, 0}, {0, 5}, {1, 1}, {3, 4}, {5, 2}} {
		a, b := dims[0], dims[1]
		var edges [][2]int
		for u := 0; u < a; u++ {
			for v := 0; v < b; v++ {
				edges = append(edges, [2]int{u, a + v})
			}
		}
		sameGraph(t, "bipartite", CompleteBipartite(a, b), buildReference(a+b, edges))
	}
	for _, d := range []int{0, 1, 2, 3, 5, 8} {
		n := 1 << d
		var edges [][2]int
		for v := 0; v < n; v++ {
			for b := 0; b < d; b++ {
				if w := v ^ (1 << b); v < w {
					edges = append(edges, [2]int{v, w})
				}
			}
		}
		sameGraph(t, "hypercube", Hypercube(d), buildReference(n, edges))
	}
	for _, dims := range [][2]int{{3, 3}, {3, 5}, {4, 4}, {6, 3}} {
		r, c := dims[0], dims[1]
		var edges [][2]int
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				v := i*c + j
				edges = append(edges, [2]int{v, ((i+1)%r)*c + j})
				edges = append(edges, [2]int{v, i*c + (j+1)%c})
			}
		}
		sameGraph(t, "torus", Torus(r, c), buildReference(r*c, edges))
	}
}

func mustPanic(t *testing.T, name, wantSub string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: expected panic", name)
			return
		}
		msg := ""
		switch v := r.(type) {
		case string:
			msg = v
		case error:
			msg = v.Error()
		}
		if !strings.Contains(msg, wantSub) {
			t.Errorf("%s: panic %q does not mention %q", name, msg, wantSub)
		}
	}()
	f()
}

// TestGeneratorGuards pins the overflow and range guards on the generators
// whose old parameter arithmetic could silently wrap.
func TestGeneratorGuards(t *testing.T) {
	mustPanic(t, "hypercube 27", "out of range", func() { Hypercube(27) })
	mustPanic(t, "hypercube -1", "out of range", func() { Hypercube(-1) })
	mustPanic(t, "hypercube 64", "out of range", func() { Hypercube(64) })
	mustPanic(t, "grid overflow", "overflows", func() { Grid(1<<20, 1<<20) })
	mustPanic(t, "grid negative", "non-negative", func() { Grid(-1, 5) })
	mustPanic(t, "torus overflow", "overflows", func() { Torus(1<<17, 1<<17) })
	mustPanic(t, "torus small", "r,c >= 3", func() { Torus(2, 5) })
	mustPanic(t, "complete negative", "n >= 0", func() { Complete(-1) })
	mustPanic(t, "bipartite negative", "a,b >= 0", func() { CompleteBipartite(3, -1) })
	// The sized builder checks the edge count before it allocates: without
	// it each of these would first append about 2·10⁹ edges.
	mustPanic(t, "complete overflow", "int32 index space", func() { Complete(1 << 16) })
	mustPanic(t, "bipartite overflow", "int32 index space", func() { CompleteBipartite(1<<16, 1<<16) })
}
