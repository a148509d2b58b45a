package core_test

import (
	"math"
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

func runFastWake(t *testing.T, g *graph.Graph, sched sim.WakeScheduler, seed int64, prob float64) *sim.Result {
	t.Helper()
	res, err := sim.RunSync(sim.Config{
		Setup:    setupOf(g, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}),
		Schedule: sched,
		Seed:     seed,
	}, core.FastWakeUp{RootProb: prob})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFastWakeUpTimeLinearInRho: the Theorem 4 guarantee — wake-up within
// O(ρ_awk) rounds — across graph families, schedules and seeds. The
// implemented pipeline costs at most 10 rounds per hop plus a constant.
func TestFastWakeUpTimeLinearInRho(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := map[string]*graph.Graph{
		"grid":   graph.Grid(10, 10),
		"cycle":  graph.Cycle(47),
		"gnp":    graph.RandomConnected(120, 0.04, rng),
		"star":   graph.Star(60),
		"binary": graph.BinaryTree(127),
	}
	for name, g := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			res := runFastWake(t, g, sim.RandomWake{Count: 2, Seed: seed}, seed, 0)
			if !res.AllAwake {
				t.Fatalf("%s seed %d: not all awake", name, seed)
			}
			rho := g.AwakeDistance(res.AwakeSet())
			limit := 10*rho + 11
			if int(res.WakeSpan) > limit {
				t.Errorf("%s seed %d: wake span %v exceeds 10ρ+11 = %d (ρ=%d)",
					name, seed, res.WakeSpan, limit, rho)
			}
		}
	}
}

// TestFastWakeUpDominatingSetOneShot: with a dominating awake set
// (ρ_awk = 1) everything wakes within the constant 21-round envelope.
func TestFastWakeUpDominatingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(150, 0.1, rng)
	res := runFastWake(t, g, sim.DominatingWake{}, 3, 0)
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	if res.WakeSpan > 21 {
		t.Errorf("wake span %v with ρ_awk ≤ 1", res.WakeSpan)
	}
}

// TestFastWakeUpMessageEnvelope: with every node awake, the message count
// must stay within a constant multiple of n^{3/2}·√(ln n) (Theorem 4),
// far below flooding's Θ(m) on dense graphs.
func TestFastWakeUpMessageEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(500, 0.5, rng) // m ≈ 62000: flooding pays Θ(n²)
	var worst int
	for seed := int64(0); seed < 2; seed++ {
		res := runFastWake(t, g, sim.WakeAll{}, seed, 0)
		if !res.AllAwake {
			t.Fatal("not all awake")
		}
		if res.Messages > worst {
			worst = res.Messages
		}
	}
	n := float64(g.N())
	envelope := 8 * math.Pow(n, 1.5) * math.Sqrt(math.Log(n))
	if float64(worst) > envelope {
		t.Errorf("messages %d exceed envelope %.0f", worst, envelope)
	}
	if worst >= 2*g.M() {
		t.Errorf("FastWakeUp (%d msgs) should beat flooding (%d) on dense graphs", worst, 2*g.M())
	}
}

// TestFastWakeUpAllRoots: forcing every active node to become a root
// (RootProb=1) still wakes everyone — BFS trees alone suffice when the
// awake set dominates radius 3.
func TestFastWakeUpAllRoots(t *testing.T) {
	g := graph.Grid(8, 8)
	res := runFastWake(t, g, sim.WakeAll{}, 1, 1)
	if !res.AllAwake {
		t.Fatal("not all awake with RootProb=1")
	}
}

// TestFastWakeUpNoRoots: with sampling probability ~0 no trees are built
// and progress comes entirely from ⟨activate!⟩ broadcasts — wake-up takes
// ≈10 rounds per hop and messages degrade toward flooding, but
// correctness holds.
func TestFastWakeUpNoRoots(t *testing.T) {
	g := graph.Path(12)
	res := runFastWake(t, g, sim.WakeSingle(0), 1, 1e-12)
	if !res.AllAwake {
		t.Fatal("not all awake with RootProb≈0")
	}
	rho := 11
	if int(res.WakeSpan) > 10*rho+11 {
		t.Errorf("wake span %v", res.WakeSpan)
	}
	// Every hop needs the full 9-round hold: span must be ≥ 9·ρ.
	if int(res.WakeSpan) < 9*rho {
		t.Errorf("wake span %v suspiciously fast without trees", res.WakeSpan)
	}
}

// TestFastWakeUpLateAdversarialWakes: nodes woken by the adversary mid-run
// join the protocol without stalling it (§3.2.2, footnote on in-progress
// BFS constructions).
func TestFastWakeUpLateWakes(t *testing.T) {
	g := graph.Grid(9, 9)
	sched := sim.StaggeredWake{Sizes: []int{1, 1, 1, 1}, Gap: 7, Seed: 4}
	res := runFastWake(t, g, sched, 2, 0)
	if !res.AllAwake {
		t.Fatal("not all awake under staggered wakes")
	}
}

// TestFastWakeUpQuiescence: the engine terminates (all machines
// deactivate) — implicitly checked by RunSync returning, and the round
// count stays finite and small relative to n.
func TestFastWakeUpQuiescence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(100, 0.05, rng)
	res := runFastWake(t, g, sim.WakeSingle(0), 6, 0)
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	if res.Rounds > 12*(g.N()) {
		t.Errorf("rounds = %d: machine failed to quiesce promptly", res.Rounds)
	}
}

// TestFastWakeUpMessagesAreLocalModel: tree construction ships neighbor
// lists, which only the LOCAL model permits; verify the engine observed
// multi-ID messages (message accounting sanity).
func TestFastWakeUpUsesLargeMessages(t *testing.T) {
	g := graph.Complete(40)
	res := runFastWake(t, g, sim.WakeAll{}, 7, 1)
	if res.MaxMessageBits <= 4*res.N {
		t.Skip("no large report messages observed in this run")
	}
	if res.CongestViolations != 0 {
		// LOCAL model: violations must not be counted.
		t.Error("LOCAL run should not count CONGEST violations")
	}
}
