package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIdentityPorts(t *testing.T) {
	g := Star(5)
	pm := IdentityPorts(g)
	if err := pm.Validate(); err != nil {
		t.Fatal(err)
	}
	// Center's port p leads to its p-th smallest neighbor.
	for p := 1; p <= 4; p++ {
		if got := pm.Neighbor(0, p); got != p {
			t.Errorf("port %d at center leads to %d", p, got)
		}
	}
	if pm.Graph() != g {
		t.Error("Graph() accessor broken")
	}
	if pm.inv != nil {
		t.Error("the identity map holds an inverse table")
	}
}

func TestRandomPortsAreBijections(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		g := RandomConnected(40, 0.1, rng)
		pm := RandomPorts(g, rng)
		if err := pm.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPortInverseProperty checks port/port⁻¹ duality on arbitrary random
// graphs, under random and identity ports: Neighbor(v, PortTo(v, u)) == u
// for every edge, and FindPort finds the same port there and none for a
// non-neighbour.
func TestPortInverseProperty(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw)%50 + 2
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(n, 0.2, rng)
		for _, pm := range []*PortMap{RandomPorts(g, rng), IdentityPorts(g)} {
			for _, e := range g.Edges() {
				u, v := e[0], e[1]
				if pm.Neighbor(u, pm.PortTo(u, v)) != v {
					return false
				}
				if pm.Neighbor(v, pm.PortTo(v, u)) != u {
					return false
				}
				if p, ok := pm.FindPort(u, v); !ok || p != pm.PortTo(u, v) {
					return false
				}
			}
			for u := 0; u < n; u++ {
				for _, v := range []int{-1, u, n, rng.Intn(n)} {
					if _, ok := pm.FindPort(u, v); ok != (v != u && v >= 0 && v < n && g.HasEdge(u, v)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPortToPanicsForNonNeighbor(t *testing.T) {
	g := Path(4)
	pm := IdentityPorts(g)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-neighbor")
		}
	}()
	pm.PortTo(0, 3)
}

func TestNeighborPanicsForBadPort(t *testing.T) {
	g := Path(4)
	pm := IdentityPorts(g)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for port 0")
		}
	}()
	pm.Neighbor(1, 0)
}

func TestRandomPortsCoverDistinctMappings(t *testing.T) {
	// Sanity: on a star with 20 leaves, two seeds almost surely give
	// different mappings at the center.
	g := Star(21)
	a := RandomPorts(g, rand.New(rand.NewSource(1)))
	b := RandomPorts(g, rand.New(rand.NewSource(2)))
	same := true
	for p := 1; p <= 20; p++ {
		if a.Neighbor(0, p) != b.Neighbor(0, p) {
			same = false
			break
		}
	}
	if same {
		t.Error("two random port maps identical — randomization suspect")
	}
}

// randomPortsReference is the shuffle-plus-search construction RandomPorts
// replaced: shuffle each node's neighbours, then binary-search every one
// back into the sorted adjacency to fill the inverse table. An identity
// map's port table is the graph's neighbour array and it has no inverse
// table, so it shuffles a copy into tables of its own.
func randomPortsReference(g *Graph, rng *rand.Rand) *PortMap {
	pm := IdentityPorts(g)
	pm.ports = slices.Clone(pm.ports)
	pm.inv = make([]int32, len(pm.ports))
	for v := 0; v < g.N(); v++ {
		seg := pm.ports[pm.start[v]:pm.start[v+1]]
		rng.Shuffle(len(seg), func(i, j int) {
			seg[i], seg[j] = seg[j], seg[i]
		})
		adj := g.Neighbors(v)
		for p0, w := range seg {
			i, _ := slices.BinarySearch(adj, w)
			pm.inv[pm.start[v]+int32(i)] = int32(p0 + 1)
		}
	}
	return pm
}

// TestRandomPortsMatchesReference checks that RandomPorts draws the same
// permutation as the shuffle-plus-search construction, leaves the same
// inverse table and consumes the same random numbers, over the
// differential graph set and many seeds.
func TestRandomPortsMatchesReference(t *testing.T) {
	gs := differentialGraphs()
	gs["complete60"] = Complete(60)
	gs["star300"] = Star(300)
	for name, g := range gs {
		for seed := int64(0); seed < 8; seed++ {
			rg, rw := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := RandomPorts(g, rg), randomPortsReference(g, rw)
			if !slices.Equal(got.ports, want.ports) || !slices.Equal(got.inv, want.inv) {
				t.Fatalf("%s seed %d: port tables differ from the reference", name, seed)
			}
			if rg.Int63() != rw.Int63() {
				t.Fatalf("%s seed %d: RandomPorts consumed a different number of draws", name, seed)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}
