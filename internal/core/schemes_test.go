package core_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"riseandshine/internal/advice"
	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// runScheme advises and executes one KT0 CONGEST advising scheme.
func runScheme(t *testing.T, g *graph.Graph, pm *graph.PortMap, oracle advice.Oracle,
	alg sim.Algorithm, sched sim.WakeScheduler, delays sim.Delayer) *sim.Result {
	t.Helper()
	adv, bits, err := oracle.Advise(g, pm)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	res, err := sim.RunAsync(sim.Config{
		Setup:    mustSetup(g, pm, sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Congest}, adv, bits),
		Schedule: sched,
		Delays:   delays,
	}, alg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CongestViolations != 0 {
		t.Fatalf("%d CONGEST violations", res.CongestViolations)
	}
	return res
}

func schemeGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	return map[string]*graph.Graph{
		"star":        graph.Star(100),          // one huge child list
		"path":        graph.Path(100),          // deep tree
		"caterpillar": graph.Caterpillar(20, 8), // mixed child counts
		"gnp":         graph.RandomConnected(150, 0.03, rng),
		"grid":        graph.Grid(10, 10),
		"complete":    graph.Complete(40),
	}
}

// --- Corollary 1 (FIP06) ---

func TestFIP06MessagesExactlyTreeEdges(t *testing.T) {
	for name, g := range schemeGraphs(t) {
		pm := graph.RandomPorts(g, rand.New(rand.NewSource(2)))
		res := runScheme(t, g, pm, core.FIP06Oracle{}, core.FIP06{},
			sim.WakeSingle(g.N()-1), sim.RandomDelay{Seed: 4})
		if !res.AllAwake {
			t.Fatalf("%s: not all awake", name)
		}
		// Every node sends over exactly its tree ports once: 2(n−1) total.
		if res.Messages != 2*(g.N()-1) {
			t.Errorf("%s: %d messages, want 2(n-1) = %d", name, res.Messages, 2*(g.N()-1))
		}
	}
}

func TestFIP06TimeBoundedByTreeDiameter(t *testing.T) {
	for name, g := range schemeGraphs(t) {
		pm := graph.RandomPorts(g, rand.New(rand.NewSource(3)))
		res := runScheme(t, g, pm, core.FIP06Oracle{}, core.FIP06{},
			sim.WakeSingle(g.N()/2), sim.UnitDelay{})
		d, err := g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		if int(res.WakeSpan) > 2*d+1 {
			t.Errorf("%s: wake span %v exceeds 2D+1 = %d", name, res.WakeSpan, 2*d+1)
		}
	}
}

func TestFIP06AdviceBounds(t *testing.T) {
	// Corollary 1: max advice O(n) bits (bitmap), average O(log n).
	for name, g := range schemeGraphs(t) {
		pm := graph.RandomPorts(g, rand.New(rand.NewSource(5)))
		_, bits, err := (core.FIP06Oracle{}).Advise(g, pm)
		if err != nil {
			t.Fatal(err)
		}
		st := advice.Measure(bits)
		n := float64(g.N())
		if float64(st.MaxBits) > n+2 {
			t.Errorf("%s: max advice %d bits exceeds n", name, st.MaxBits)
		}
		if avg := float64(st.TotalBits) / n; avg > 8*math.Log2(n)+8 {
			t.Errorf("%s: average advice %.1f bits too large", name, avg)
		}
	}
}

func TestFIP06OracleRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	_, _, err := (core.FIP06Oracle{}).Advise(g, graph.IdentityPorts(g))
	if !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("err = %v, want ErrDisconnected", err)
	}
}

func TestFIP06OracleRejectsBadRoot(t *testing.T) {
	g := graph.Path(3)
	if _, _, err := (core.FIP06Oracle{Root: 9}).Advise(g, graph.IdentityPorts(g)); err == nil {
		t.Error("expected root-range error")
	}
}

// --- Theorem 5(A) (Threshold) ---

func TestThresholdMessagesWithinN32(t *testing.T) {
	for name, g := range schemeGraphs(t) {
		pm := graph.RandomPorts(g, rand.New(rand.NewSource(6)))
		res := runScheme(t, g, pm, core.ThresholdOracle{}, core.Threshold{},
			sim.WakeSingle(0), sim.RandomDelay{Seed: 7})
		if !res.AllAwake {
			t.Fatalf("%s: not all awake", name)
		}
		n := float64(g.N())
		if float64(res.Messages) > 2*math.Pow(n, 1.5)+2*n {
			t.Errorf("%s: %d messages exceed O(n^{3/2})", name, res.Messages)
		}
	}
}

func TestThresholdAdviceMaxBound(t *testing.T) {
	for name, g := range schemeGraphs(t) {
		pm := graph.RandomPorts(g, rand.New(rand.NewSource(8)))
		_, bits, err := (core.ThresholdOracle{}).Advise(g, pm)
		if err != nil {
			t.Fatal(err)
		}
		st := advice.Measure(bits)
		n := float64(g.N())
		bound := (math.Sqrt(n) + 2) * (math.Log2(n) + 2)
		if float64(st.MaxBits) > bound {
			t.Errorf("%s: max advice %d bits exceeds √n·log n ≈ %.0f", name, st.MaxBits, bound)
		}
	}
}

func TestThresholdCustomCutoff(t *testing.T) {
	// Threshold=1 forces every internal tree node to broadcast.
	g := graph.Star(30)
	pm := graph.IdentityPorts(g)
	res := runScheme(t, g, pm, core.ThresholdOracle{Threshold: 1}, core.Threshold{},
		sim.WakeSingle(5), sim.UnitDelay{})
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	// The center is high degree: it broadcasts its 29 edges.
	if res.Messages < 29 {
		t.Errorf("messages = %d; expected the hub broadcast", res.Messages)
	}
}

// --- Theorem 5(B) (CEN) ---

func TestCENMessagesLinear(t *testing.T) {
	for name, g := range schemeGraphs(t) {
		pm := graph.RandomPorts(g, rand.New(rand.NewSource(9)))
		res := runScheme(t, g, pm, core.CENOracle{}, core.CEN{},
			sim.WakeSingle(g.N()-1), sim.RandomDelay{Seed: 10})
		if !res.AllAwake {
			t.Fatalf("%s: not all awake", name)
		}
		// ≤ wake msgs (2 per node) + relays (2 per node).
		if res.Messages > 4*g.N() {
			t.Errorf("%s: %d messages exceed 4n", name, res.Messages)
		}
	}
}

func TestCENAdviceLogarithmic(t *testing.T) {
	for name, g := range schemeGraphs(t) {
		pm := graph.RandomPorts(g, rand.New(rand.NewSource(11)))
		_, bits, err := (core.CENOracle{}).Advise(g, pm)
		if err != nil {
			t.Fatal(err)
		}
		st := advice.Measure(bits)
		// 4 ports of ⌈log2 n⌉+1 bits plus 4 flags.
		bound := 4*(int(math.Log2(float64(g.N())))+2) + 4
		if st.MaxBits > bound {
			t.Errorf("%s: max advice %d bits exceeds %d", name, st.MaxBits, bound)
		}
	}
}

func TestCENTimeDLogN(t *testing.T) {
	for name, g := range schemeGraphs(t) {
		pm := graph.RandomPorts(g, rand.New(rand.NewSource(12)))
		res := runScheme(t, g, pm, core.CENOracle{}, core.CEN{},
			sim.WakeSingle(0), sim.UnitDelay{})
		d, err := g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		n := float64(g.N())
		bound := 4 * float64(d+1) * (math.Log2(n) + 1)
		if float64(res.WakeSpan) > bound {
			t.Errorf("%s: wake span %v exceeds O(D log n) ≈ %.0f", name, res.WakeSpan, bound)
		}
	}
}

func TestCENStarFromLeaf(t *testing.T) {
	// The scheme's point: the star center stores O(log n) bits yet all 99
	// leaves wake through the sibling-heap dissemination.
	g := graph.Star(100)
	pm := graph.RandomPorts(g, rand.New(rand.NewSource(13)))
	res := runScheme(t, g, pm, core.CENOracle{}, core.CEN{},
		sim.WakeSingle(99), sim.UnitDelay{})
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	// Dissemination over a 99-leaf heap: depth ⌈log2 99⌉ ≈ 7, two time
	// units per heap level plus the initial hop.
	if res.WakeSpan > 2*8+3 {
		t.Errorf("wake span %v exceeds 2·log2(n)+3", res.WakeSpan)
	}
	if res.AdviceMaxBits > 40 {
		t.Errorf("max advice %d bits on a star", res.AdviceMaxBits)
	}
}

func TestCENEveryWakeSetWorks(t *testing.T) {
	g := graph.Grid(6, 6)
	pm := graph.RandomPorts(g, rand.New(rand.NewSource(14)))
	// Wake from every single node in turn.
	for v := 0; v < g.N(); v++ {
		res := runScheme(t, g, pm, core.CENOracle{}, core.CEN{},
			sim.WakeSingle(v), sim.RandomDelay{Seed: int64(v)})
		if !res.AllAwake {
			t.Fatalf("wake from %d: only %d/%d awake", v, res.AwakeCount, res.N)
		}
	}
}

func TestCENCongestCompliant(t *testing.T) {
	g := graph.Complete(60)
	pm := graph.RandomPorts(g, rand.New(rand.NewSource(15)))
	res := runScheme(t, g, pm, core.CENOracle{}, core.CEN{},
		sim.WakeSingle(0), sim.UnitDelay{})
	if res.CongestViolations != 0 {
		t.Errorf("%d CONGEST violations", res.CongestViolations)
	}
}

// TestAdviceSeparationOnHubGraph: on a preferential-attachment graph the
// hub forces FIP06's max advice toward its degree while CEN stays
// logarithmic — the §4 separation on a realistic topology.
func TestAdviceSeparationOnHubGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.PreferentialAttachment(800, 2, rng)
	pm := graph.RandomPorts(g, rng)
	_, fipBits, err := (core.FIP06Oracle{}).Advise(g, pm)
	if err != nil {
		t.Fatal(err)
	}
	_, cenBits, err := (core.CENOracle{}).Advise(g, pm)
	if err != nil {
		t.Fatal(err)
	}
	fip := advice.Measure(fipBits)
	cen := advice.Measure(cenBits)
	if cen.MaxBits > 4*(int(math.Log2(800))+2)+4 {
		t.Errorf("CEN max advice %d bits not logarithmic", cen.MaxBits)
	}
	// FIP06's max advice scales with the hub's (tree) degree — a bitmap
	// over its ports — while CEN's does not scale with n or degree at all.
	if fip.MaxBits <= cen.MaxBits {
		t.Errorf("expected fip06 max advice (%db) above cen (%db) on a hub graph", fip.MaxBits, cen.MaxBits)
	}
	if fip.MaxBits < g.MaxDegree()/2 {
		t.Errorf("fip06 max advice %db should scale with the hub degree %d", fip.MaxBits, g.MaxDegree())
	}
}

// TestSchemesUnderRandomPortRemaps: advice is computed for one port map
// and must be used with the same map; re-advising after a remap also works
// for every scheme (oracle-portmap consistency).
func TestSchemesUnderRandomPortRemaps(t *testing.T) {
	g := graph.Caterpillar(15, 5)
	for seed := int64(0); seed < 5; seed++ {
		pm := graph.RandomPorts(g, rand.New(rand.NewSource(seed)))
		for _, tc := range []struct {
			oracle advice.Oracle
			alg    sim.Algorithm
		}{
			{core.FIP06Oracle{}, core.FIP06{}},
			{core.ThresholdOracle{}, core.Threshold{}},
			{core.CENOracle{}, core.CEN{}},
		} {
			res := runScheme(t, g, pm, tc.oracle, tc.alg,
				sim.RandomWake{Count: 3, Seed: seed}, sim.RandomDelay{Seed: seed})
			if !res.AllAwake {
				t.Fatalf("seed %d %s: not all awake", seed, tc.oracle.Name())
			}
		}
	}
}
