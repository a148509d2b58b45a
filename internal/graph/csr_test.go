package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// checkCSR verifies a CSR export cell-by-cell against the PortMap's
// Neighbor/PortTo reference implementation.
func checkCSR(t *testing.T, pm *PortMap) {
	t.Helper()
	g := pm.Graph()
	start, to := pm.CSR()
	rev := pm.RevPorts()
	if len(start) != g.N()+1 || int(start[g.N()]) != 2*g.M() {
		t.Fatalf("CSR shape: len(start)=%d want %d, start[n]=%d want %d",
			len(start), g.N()+1, start[g.N()], 2*g.M())
	}
	if len(to) != 2*g.M() || len(rev) != 2*g.M() {
		t.Fatalf("CSR arrays: len(to)=%d len(rev)=%d want %d", len(to), len(rev), 2*g.M())
	}
	for v := 0; v < g.N(); v++ {
		if deg := int(start[v+1] - start[v]); deg != g.Degree(v) {
			t.Fatalf("node %d: CSR degree %d, graph degree %d", v, deg, g.Degree(v))
		}
		for p := 1; p <= g.Degree(v); p++ {
			ei := start[v] + int32(p) - 1
			u := pm.Neighbor(v, p)
			if int(to[ei]) != u {
				t.Fatalf("node %d port %d: CSR edgeTo %d, Neighbor %d", v, p, to[ei], u)
			}
			if want := pm.PortTo(u, v); int(rev[ei]) != want {
				t.Fatalf("node %d port %d -> %d: CSR revPort %d, PortTo %d", v, p, u, rev[ei], want)
			}
		}
	}
}

// TestCSRMatchesPortMap checks the CSR export against Neighbor/PortTo on
// fixed topologies under identity and adversarial random ports.
func TestCSRMatchesPortMap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, g := range []*Graph{
		Path(10), Complete(9), Torus(3, 5), BinaryTree(31),
		RandomConnected(50, 0.12, rng),
	} {
		checkCSR(t, IdentityPorts(g))
		checkCSR(t, RandomPorts(g, rng))
	}
}

// TestCSRMatchesPortMapQuick fuzzes the same property over arbitrary
// connected graphs and port seeds.
func TestCSRMatchesPortMapQuick(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw)%40 + 2
		g := RandomConnected(n, 0.15, rand.New(rand.NewSource(seed)))
		checkCSR(t, RandomPorts(g, rand.New(rand.NewSource(seed+1))))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
