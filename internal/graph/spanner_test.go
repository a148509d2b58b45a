package graph

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGreedySpannerStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 3} {
		for trial := 0; trial < 5; trial++ {
			g := RandomConnected(80, 0.15, rng)
			s, err := GreedySpanner(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyStretch(g, s, 2*k-1); err != nil {
				t.Errorf("k=%d trial=%d: %v", k, trial, err)
			}
			if !s.Connected() {
				t.Errorf("k=%d trial=%d: spanner disconnected", k, trial)
			}
		}
	}
	// A table1-size instance: connected:2048:0.05 at k = ⌈log₂ n⌉, the
	// Corollary 2 row's largest graph.
	g := RandomConnected(2048, 0.05, rand.New(rand.NewSource(1)))
	k := bits.Len(uint(g.N() - 1))
	s, err := GreedySpanner(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStretch(g, s, 2*k-1); err != nil {
		t.Errorf("connected:2048:0.05 k=%d: %v", k, err)
	}
	if err := VerifyStretch(g, s, 1); err == nil {
		t.Errorf("connected:2048:0.05 k=%d: a %d-edge spanner of a %d-edge graph passed stretch 1", k, s.M(), g.M())
	}
}

func TestGreedySpannerK1IsWholeGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := RandomConnected(50, 0.2, rng)
	s, err := GreedySpanner(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != g.M() {
		t.Errorf("1-spanner dropped edges: %d vs %d", s.M(), g.M())
	}
}

func TestGreedySpannerEdgeBound(t *testing.T) {
	// Girth argument: a (2k−1)-spanner built greedily has girth > 2k and
	// hence at most n^{1+1/k} + n edges.
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{2, 3, 4} {
		g := RandomConnected(200, 0.3, rng)
		s, err := GreedySpanner(g, k)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(g.N())
		bound := math.Pow(n, 1+1.0/float64(k)) + n
		if float64(s.M()) > bound {
			t.Errorf("k=%d: spanner has %d edges, girth bound is %.0f", k, s.M(), bound)
		}
		if girth := s.Girth(); girth != -1 && girth <= 2*k {
			t.Errorf("k=%d: spanner girth %d, want > %d", k, girth, 2*k)
		}
	}
}

func TestGreedySpannerOnTreeIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := RandomTree(60, rng)
	s, err := GreedySpanner(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != g.M() {
		t.Error("spanner of a tree must keep every edge")
	}
}

func TestGreedySpannerRejectsBadK(t *testing.T) {
	if _, err := GreedySpanner(Path(3), 0); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestVerifyStretchDetectsViolation(t *testing.T) {
	g := Cycle(10)
	// Spanner missing one edge: remaining distance between its endpoints
	// is 9 > 3.
	edges := g.Edges()[:9]
	s, err := g.Subgraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStretch(g, s, 3); err == nil {
		t.Error("expected stretch violation")
	}
	if err := VerifyStretch(g, s, 9); err != nil {
		t.Errorf("stretch 9 should pass: %v", err)
	}
}

func TestDegeneracyKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"tree", BinaryTree(31), 1},
		{"cycle", Cycle(9), 2},
		{"complete", Complete(7), 6},
		{"grid", Grid(5, 5), 2},
		{"star", Star(12), 1},
	}
	for _, tc := range cases {
		order, d := DegeneracyOrder(tc.g)
		if d != tc.want {
			t.Errorf("%s: degeneracy = %d, want %d", tc.name, d, tc.want)
		}
		if len(order) != tc.g.N() {
			t.Errorf("%s: order has %d entries", tc.name, len(order))
		}
		seen := make(map[int]bool)
		for _, v := range order {
			if seen[v] {
				t.Fatalf("%s: node %d repeated in order", tc.name, v)
			}
			seen[v] = true
		}
	}
}

// TestOrientationOutDegreeProperty: orienting along a degeneracy order
// bounds out-degree by the degeneracy, for arbitrary random graphs.
func TestOrientationOutDegreeProperty(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw)%60 + 2
		g := RandomConnected(n, 0.15, rand.New(rand.NewSource(seed)))
		order, d := DegeneracyOrder(g)
		out := OrientByOrder(g, order)
		total := 0
		for v := range out {
			if len(out[v]) > d {
				return false
			}
			total += len(out[v])
		}
		return total == g.M() // every edge oriented exactly once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
