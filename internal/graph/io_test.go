package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestEdgeListRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomConnected(60, 0.08, rng)
	if err := g.SetIDs(shiftIDs(60, 1000)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("roundtrip: n=%d m=%d vs n=%d m=%d", back.N(), back.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if !back.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost", e)
		}
	}
	for v := 0; v < g.N(); v++ {
		if back.ID(v) != g.ID(v) {
			t.Fatalf("ID of node %d lost: %d vs %d", v, back.ID(v), g.ID(v))
		}
	}
}

func shiftIDs(n int, offset int64) []NodeID {
	ids := make([]NodeID, n)
	for v := range ids {
		ids[v] = NodeID(int64(v) + offset)
	}
	return ids
}

func TestReadEdgeListComments(t *testing.T) {
	in := `# a triangle with a tail
n 4
0 1
1 2

2 0
2 3
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Girth() != 3 {
		t.Errorf("girth = %d", g.Girth())
	}
}

func TestReadEdgeListInfersN(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 {
		t.Errorf("inferred n = %d, want 6", g.N())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{
		"n x\n",
		"0 1 2 3\n",
		"a b\n",
		"id 0 x\n",
		"n 2\nid 9 4\n",
		"n 2\n0 0\n", // self loop caught by Build
		// Endpoints outside int32 used to wrap onto node 1.
		"n 3\n0 4294967297\n1 2\n",
		"n 3\n0 -4294967295\n1 2\n",
	} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := Path(3)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, []int{0}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph G {", "0 -- 1;", "1 -- 2;", "fillcolor=gold"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
