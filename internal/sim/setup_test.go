package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riseandshine/internal/graph"
)

// referenceNodeInfo is the per-node NodeInfo table Setup used to build in
// NewSetup, one entry per node with a fresh NeighborIDs slice each. It is
// kept here as the reference Setup.info is compared against.
func referenceNodeInfo(g *graph.Graph, pm *graph.PortMap, model Model, adv [][]byte, advBits []int, v int) NodeInfo {
	info := NodeInfo{
		ID:     g.ID(v),
		N:      g.N(),
		LogN:   CeilLog2(g.N()),
		Degree: g.Degree(v),
	}
	if model.Knowledge == KT1 {
		ids := make([]graph.NodeID, info.Degree)
		for p := 1; p <= info.Degree; p++ {
			ids[p-1] = g.ID(pm.Neighbor(v, p))
		}
		info.NeighborIDs = ids
	}
	if adv != nil {
		info.Advice = adv[v]
		if advBits != nil {
			info.AdviceBits = advBits[v]
		}
	}
	return info
}

// infoCase is one Setup configuration of TestNodeInfoMatchesReference.
type infoCase struct {
	name       string
	g          *graph.Graph
	ports      *graph.PortMap
	model      Model
	advice     [][]byte
	adviceBits []int
}

// infoCases crosses KT0/KT1, identity/random ports, default/permuted IDs
// and advice/none on a random graph whose last node has degree 0.
func infoCases(t *testing.T) []infoCase {
	t.Helper()
	var cases []infoCase
	for _, kt := range []Knowledge{KT0, KT1} {
		for _, randomPorts := range []bool{false, true} {
			for _, permuted := range []bool{false, true} {
				for _, withAdvice := range []bool{false, true} {
					rng := rand.New(rand.NewSource(int64(len(cases) + 1)))
					g := isolatedTail(t, graph.RandomGNP(40, 0.15, rng))
					if permuted {
						graph.ShuffleIDs(g, rng)
					}
					c := infoCase{
						name:  fmt.Sprintf("%v/randomPorts=%v/permutedIDs=%v/advice=%v", kt, randomPorts, permuted, withAdvice),
						g:     g,
						model: Model{Knowledge: kt, Bandwidth: Congest},
					}
					if randomPorts {
						c.ports = graph.RandomPorts(g, rng)
					}
					if withAdvice {
						c.advice, c.adviceBits = randomAdvice(g.N(), rng)
					}
					cases = append(cases, c)
				}
			}
		}
	}
	return cases
}

// isolatedTail returns g with one more node, of degree 0, appended.
func isolatedTail(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(g.N() + 1)
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if out.Degree(out.N()-1) != 0 {
		t.Fatal("tail node has edges")
	}
	return out
}

// randomAdvice draws 0–3 bytes per node with a bit length anywhere in
// [0, 8·bytes], so nodes with no advice bytes occur too.
func randomAdvice(n int, rng *rand.Rand) ([][]byte, []int) {
	adv := make([][]byte, n)
	bits := make([]int, n)
	for v := range adv {
		adv[v] = make([]byte, rng.Intn(4))
		rng.Read(adv[v])
		bits[v] = rng.Intn(8*len(adv[v]) + 1)
	}
	return adv, bits
}

// TestNodeInfoMatchesReference pins Setup.info, which builds a node's
// NodeInfo when it wakes, to the per-node table it replaced, for every
// node of every case; and checks that each KT1 NeighborIDs slice is capped
// at its length, so one machine's append cannot write into its
// neighbour's IDs in the shared flat table.
func TestNodeInfoMatchesReference(t *testing.T) {
	for _, c := range infoCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSetup(c.g, c.ports, c.model, c.advice, c.adviceBits)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < c.g.N(); v++ {
				got := s.info(v)
				want := referenceNodeInfo(c.g, s.Ports, c.model, c.advice, c.adviceBits, v)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("node %d: info %+v, reference %+v", v, got, want)
				}
				if cap(got.NeighborIDs) != len(got.NeighborIDs) {
					t.Fatalf("node %d: NeighborIDs has len %d, cap %d", v, len(got.NeighborIDs), cap(got.NeighborIDs))
				}
			}
		})
	}
}

// infoAlg records the NodeInfo every machine is created with and the one
// its Context reports on wake, in both timing models. Each node wakes once,
// on the core that owns it, so sharded cores write disjoint entries.
type infoAlg struct {
	g       *graph.Graph
	created []NodeInfo
	woken   []NodeInfo
	made    []bool
}

func newInfoAlg(g *graph.Graph) *infoAlg {
	return &infoAlg{g: g, created: make([]NodeInfo, g.N()), woken: make([]NodeInfo, g.N()), made: make([]bool, g.N())}
}

func (a *infoAlg) Name() string { return "info-test" }

func (a *infoAlg) NewMachine(info NodeInfo) Program { return a.machine(info) }

func (a *infoAlg) machine(info NodeInfo) infoMachine {
	v := a.g.IndexOf(info.ID)
	a.created[v] = info
	a.made[v] = true
	return infoMachine{a}
}

type infoMachine struct{ a *infoAlg }

func (m infoMachine) OnWake(ctx Context) {
	info := ctx.Info()
	m.a.woken[m.a.g.IndexOf(info.ID)] = info
	ctx.Broadcast(pingMsg{})
}
func (infoMachine) OnMessage(Context, Delivery) {}
func (infoMachine) OnRound(Context, []Delivery) {}

type syncInfoAlg struct{ *infoAlg }

func (a syncInfoAlg) NewMachine(info NodeInfo) SyncProgram { return a.machine(info) }

// TestRunNodeInfoMatchesReference checks the NodeInfo a run hands out —
// to NewMachine and through Context.Info — against the reference, for
// every node a flood wakes, asynchronously, on two shards and in
// synchronous rounds.
func TestRunNodeInfoMatchesReference(t *testing.T) {
	for _, c := range infoCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSetup(c.g, c.ports, c.model, c.advice, c.adviceBits)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Graph:     c.g,
				Ports:     c.ports,
				Model:     c.model,
				Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0, c.g.N() - 1}}, Delays: RandomDelay{Seed: 3, Min: 0.25}},
				Setup:     s,
			}
			for _, mode := range []string{"async", "sharded", "sync"} {
				a := newInfoAlg(c.g)
				var res *Result
				switch mode {
				case "async":
					res, err = RunAsync(cfg, a)
				case "sharded":
					sharded := cfg
					sharded.Shards = 2
					sharded.MemReport = true
					res, err = RunAsync(sharded, a)
					if err == nil && res.Mem.Shards != 2 {
						t.Fatalf("sharded: ran on %d shards, want 2", res.Mem.Shards)
					}
				case "sync":
					res, err = RunSync(cfg, syncInfoAlg{a})
				}
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				made := 0
				for v, ok := range a.made {
					if !ok {
						continue
					}
					made++
					want := referenceNodeInfo(c.g, s.Ports, c.model, c.advice, c.adviceBits, v)
					if !reflect.DeepEqual(a.created[v], want) || !reflect.DeepEqual(a.woken[v], want) {
						t.Fatalf("%s: node %d: NewMachine got %+v, Info got %+v, reference %+v", mode, v, a.created[v], a.woken[v], want)
					}
				}
				if made != res.AwakeCount {
					t.Fatalf("%s: %d machines for %d awake nodes", mode, made, res.AwakeCount)
				}
			}
		})
	}
}

// TestNewSetupAllocsFlat pins that a KT1 Setup allocates a constant
// number of times, whatever the graph size: the neighbour IDs live in one
// flat table, not in a slice per node.
func TestNewSetupAllocsFlat(t *testing.T) {
	model := Model{Knowledge: KT1, Bandwidth: Congest}
	allocs := func(n int) float64 {
		g := graph.BinaryTree(n)
		ports := graph.IdentityPorts(g)
		return testing.AllocsPerRun(5, func() {
			if _, err := NewSetup(g, ports, model, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	if small != large {
		t.Fatalf("NewSetup on KT1 allocates %v times at n=100 and %v at n=10000; want the same count", small, large)
	}
}
