package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"riseandshine/internal/graph"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// testMsg is a numbered message for engine-semantics tests.
type testMsg struct {
	Seq  int
	bits int
}

func (m testMsg) Bits() int { return m.bits }

// seqAlgorithm: node 0 sends Count numbered messages to node 1 on wake;
// node 1 records arrival order.
type seqAlgorithm struct {
	count    int
	bits     int
	received *[]int
}

func (a seqAlgorithm) Name() string { return "seq-test" }

func (a seqAlgorithm) NewMachine(info NodeInfo) Program {
	return &seqMachine{a: a, info: info}
}

type seqMachine struct {
	a    seqAlgorithm
	info NodeInfo
}

func (m *seqMachine) OnWake(ctx Context) {
	if !ctx.AdversarialWake() {
		return
	}
	for i := 0; i < m.a.count; i++ {
		ctx.Send(1, testMsg{Seq: i, bits: m.a.bits})
	}
}

func (m *seqMachine) OnMessage(_ Context, d Delivery) {
	if msg, ok := d.Msg.(testMsg); ok {
		*m.a.received = append(*m.a.received, msg.Seq)
	}
}

func pairGraph() *graph.Graph {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	return b.MustBuild()
}

func TestFIFOUnderRandomDelays(t *testing.T) {
	var received []int
	_, err := RunAsync(Config{
		Graph: pairGraph(),
		Model: Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
			Delays:   RandomDelay{Seed: 99},
		},
	}, seqAlgorithm{count: 50, bits: 8, received: &received})
	if err != nil {
		t.Fatal(err)
	}
	if len(received) != 50 {
		t.Fatalf("got %d messages, want 50", len(received))
	}
	for i, s := range received {
		if s != i {
			t.Fatalf("FIFO violated: position %d has seq %d", i, s)
		}
	}
}

func TestCongestAccounting(t *testing.T) {
	var received []int
	// 2 nodes: limit is 4·⌈log2 2⌉ = 4 bits; send oversized messages.
	res, err := RunAsync(Config{
		Graph: pairGraph(),
		Model: Model{Knowledge: KT0, Bandwidth: Congest},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
		},
	}, seqAlgorithm{count: 3, bits: 100, received: &received})
	if err != nil {
		t.Fatal(err)
	}
	if res.CongestViolations != 3 {
		t.Errorf("violations = %d, want 3", res.CongestViolations)
	}
	if res.MaxMessageBits != 100 {
		t.Errorf("max bits = %d", res.MaxMessageBits)
	}
	if res.MessageBits != 300 {
		t.Errorf("total bits = %d", res.MessageBits)
	}
}

func TestCongestLimitOverride(t *testing.T) {
	var received []int
	res, err := RunAsync(Config{
		Graph: pairGraph(),
		Model: Model{Knowledge: KT0, Bandwidth: Congest, CongestBits: 128},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
		},
	}, seqAlgorithm{count: 2, bits: 100, received: &received})
	if err != nil {
		t.Fatal(err)
	}
	if res.CongestViolations != 0 {
		t.Errorf("violations = %d with raised limit", res.CongestViolations)
	}
}

func TestLocalModelHasNoLimit(t *testing.T) {
	var received []int
	res, err := RunAsync(Config{
		Graph: pairGraph(),
		Model: Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
		},
	}, seqAlgorithm{count: 1, bits: 1 << 20, received: &received})
	if err != nil {
		t.Fatal(err)
	}
	if res.CongestViolations != 0 {
		t.Error("LOCAL model should not flag violations")
	}
}

// echoAlgorithm: node 0 pings, node 1 echoes; measures span accounting.
type echoAlgorithm struct{}

func (echoAlgorithm) Name() string { return "echo" }
func (echoAlgorithm) NewMachine(info NodeInfo) Program {
	return &echoMachine{}
}

type echoMachine struct{ echoed bool }

func (m *echoMachine) OnWake(ctx Context) {
	if ctx.AdversarialWake() {
		ctx.Send(1, testMsg{bits: 4})
	}
}

func (m *echoMachine) OnMessage(ctx Context, d Delivery) {
	if !m.echoed {
		m.echoed = true
		if !ctx.AdversarialWake() {
			ctx.Send(d.Port, testMsg{bits: 4})
		}
	}
}

func TestSpanMeasuredFromFirstWake(t *testing.T) {
	// Wake node 0 at time 10; unit delays: ping at 11, echo at 12.
	res, err := RunAsync(Config{
		Graph: pairGraph(),
		Model: Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSet{Nodes: []int{0}, At: 10},
		},
	}, echoAlgorithm{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(res.Span)-2) > 1e-9 {
		t.Errorf("span = %v, want 2", res.Span)
	}
	if math.Abs(float64(res.WakeSpan)-1) > 1e-9 {
		t.Errorf("wake span = %v, want 1", res.WakeSpan)
	}
	if res.WakeAt[0] != 10 || res.WakeAt[1] != 11 {
		t.Errorf("wake times = %v", res.WakeAt)
	}
	if !res.AdversaryWoken[0] || res.AdversaryWoken[1] {
		t.Errorf("adversary-woken flags = %v", res.AdversaryWoken)
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.RandomConnected(60, 0.1, newTestRand(5))
	run := func() *Result {
		var received []int
		res, err := RunAsync(Config{
			Graph: g,
			Model: Model{Knowledge: KT0, Bandwidth: Local},
			Adversary: Adversary{
				Schedule: RandomWake{Count: 4, Window: 3, Seed: 7},
				Delays:   RandomDelay{Seed: 11},
			},
			Seed: 13,
		}, seqAlgorithm{count: 5, bits: 8, received: &received})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Messages != b.Messages || a.Span != b.Span || a.Events != b.Events {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
	for v := range a.WakeAt {
		if a.WakeAt[v] != b.WakeAt[v] {
			t.Fatalf("wake time of %d differs", v)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	var received []int
	alg := seqAlgorithm{count: 1, bits: 4, received: &received}
	if _, err := RunAsync(Config{}, alg); err == nil {
		t.Error("expected error for missing graph")
	}
	if _, err := RunAsync(Config{Graph: pairGraph()}, alg); err == nil {
		t.Error("expected error for missing schedule")
	}
	if _, err := RunAsync(Config{
		Graph:     pairGraph(),
		Adversary: Adversary{Schedule: WakeSingle(0)},
	}, nil); err == nil {
		t.Error("expected error for nil algorithm")
	}
	if _, err := RunAsync(Config{
		Graph:     pairGraph(),
		Adversary: Adversary{Schedule: WakeSet{Nodes: []int{7}}},
	}, alg); err == nil {
		t.Error("expected error for out-of-range wakeup")
	}
	for _, at := range []Time{-1, Time(math.NaN()), Time(math.Inf(1))} {
		for _, shards := range []int{0, 2} {
			if _, err := RunAsync(Config{
				Graph:     pairGraph(),
				Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0}, At: at}, Delays: UnitDelay{}},
				Shards:    shards,
			}, alg); err == nil {
				t.Errorf("expected error for wake time %v at shards %d", at, shards)
			}
		}
	}
	if _, err := RunAsync(Config{
		Graph:     pairGraph(),
		Adversary: Adversary{Schedule: WakeSingle(0)},
		Advice:    make([][]byte, 5),
	}, alg); err == nil {
		t.Error("expected error for advice length mismatch")
	}
	// Advice bit lengths: one per node, only beside advice, and each
	// within [0, 8·len(advice[v])] — what advice.Reader can read.
	oneByte := [][]byte{{1}, {2}, {3}}
	for _, c := range []struct {
		name   string
		advice [][]byte
		bits   []int
		ok     bool
	}{
		{"valid", oneByte, []int{8, 0, 5}, true},
		{"too few bit lengths", oneByte, []int{8, 8}, false},
		{"too many bit lengths", oneByte, []int{8, 8, 8, 8}, false},
		{"bit lengths without advice", nil, []int{8, 8, 8}, false},
		{"negative bit length", oneByte, []int{8, -5, 8}, false},
		{"more bits than bytes hold", oneByte, []int{8, 9, 8}, false},
	} {
		res, err := RunAsync(Config{
			Graph:      graph.Path(3),
			Adversary:  Adversary{Schedule: WakeSingle(0)},
			Advice:     c.advice,
			AdviceBits: c.bits,
		}, alg)
		if c.ok && (err != nil || res.AdviceTotalBits != 13 || res.AdviceMaxBits != 8) {
			t.Errorf("%s: err=%v, result %+v; want a run with 13 advice bits, at most 8", c.name, err, res)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected an error, got advice total %d", c.name, res.AdviceTotalBits)
		}
	}
}

type badDelayer struct{ v float64 }

func (d badDelayer) Delay(int, int, int, Time) float64 { return d.v }

// Lookahead lets Shards > 1 take the sharded path, whose send shares the
// delay check.
func (badDelayer) Lookahead() float64 { return 0.5 }

// TestDelayValidation requires every delay outside (0, 1] to abort the run
// on both paths. NaN fails every comparison, so a check written as
// "delay <= 0 || delay > 1" would let it through and yield a NaN span.
func TestDelayValidation(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := func(v float64) Config {
			return Config{
				Graph: pairGraph(),
				Model: Model{Knowledge: KT0, Bandwidth: Local},
				Adversary: Adversary{
					Schedule: WakeSingle(0),
					Delays:   badDelayer{v: v},
				},
				Shards:    shards,
				MemReport: true,
			}
		}
		var received []int
		res, err := RunAsync(cfg(0.5), seqAlgorithm{count: 1, bits: 4, received: &received})
		if err != nil || res.Mem.Shards != shards {
			t.Fatalf("shards=%d: valid delay gave err=%v, want a run on %d shards", shards, err, shards)
		}
		for _, bad := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
			received = nil
			res, err := RunAsync(cfg(bad), seqAlgorithm{count: 1, bits: 4, received: &received})
			if err == nil {
				t.Errorf("shards=%d: delay %v should be rejected, got span %v", shards, bad, res.Span)
			}
		}
	}
}

// chainAlgorithm endlessly bounces a message, to exercise the event limit.
type chainAlgorithm struct{}

func (chainAlgorithm) Name() string                { return "chain" }
func (chainAlgorithm) NewMachine(NodeInfo) Program { return chainMachine{} }

type chainMachine struct{}

func (chainMachine) OnWake(ctx Context) {
	if ctx.AdversarialWake() {
		ctx.Send(1, testMsg{bits: 4})
	}
}
func (chainMachine) OnMessage(ctx Context, d Delivery) {
	ctx.Send(d.Port, testMsg{bits: 4})
}

func TestEventLimit(t *testing.T) {
	_, err := RunAsync(Config{
		Graph: pairGraph(),
		Model: Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
		},
		MaxEvents: 500,
	}, chainAlgorithm{})
	if err == nil || !strings.Contains(err.Error(), "event limit") {
		t.Fatalf("expected event-limit error, got %v", err)
	}
}

func TestSendToIDRequiresKT1(t *testing.T) {
	g := pairGraph()
	if err := g.SetIDs([]graph.NodeID{100, 200}); err != nil {
		t.Fatal(err)
	}
	_, err := RunAsync(Config{
		Graph: g,
		Model: Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
		},
	}, idSendAlgorithm{target: 200})
	if err == nil || !strings.Contains(err.Error(), "KT1") {
		t.Fatalf("expected KT1 error, got %v", err)
	}
}

type idSendAlgorithm struct{ target graph.NodeID }

func (idSendAlgorithm) Name() string { return "id-send" }
func (a idSendAlgorithm) NewMachine(NodeInfo) Program {
	return idSendMachine{target: a.target}
}

type idSendMachine struct{ target graph.NodeID }

func (m idSendMachine) OnWake(ctx Context) {
	if ctx.AdversarialWake() {
		ctx.SendToID(m.target, testMsg{bits: 4})
	}
}
func (idSendMachine) OnMessage(Context, Delivery) {}

func TestSendToIDWorksUnderKT1(t *testing.T) {
	g := pairGraph()
	if err := g.SetIDs([]graph.NodeID{100, 200}); err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(Config{
		Graph: g,
		Model: Model{Knowledge: KT1, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
		},
	}, idSendAlgorithm{target: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Error("target not woken")
	}
}

func TestSendToIDRejectsNonNeighbor(t *testing.T) {
	g := graph.Path(3)
	_, err := RunAsync(Config{
		Graph: g,
		Model: Model{Knowledge: KT1, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
		},
	}, idSendAlgorithm{target: 2}) // node 2 not adjacent to node 0
	if err == nil || !strings.Contains(err.Error(), "no neighbor") {
		t.Fatalf("expected non-neighbor error, got %v", err)
	}
}

func TestKT1NeighborIDsFollowPorts(t *testing.T) {
	g := graph.Star(5)
	if err := g.SetIDs([]graph.NodeID{50, 51, 52, 53, 54}); err != nil {
		t.Fatal(err)
	}
	pm := graph.RandomPorts(g, newTestRand(3))
	var captured []graph.NodeID
	_, err := RunAsync(Config{
		Graph: g,
		Ports: pm,
		Model: Model{Knowledge: KT1, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
		},
	}, captureAlgorithm{out: &captured})
	if err != nil {
		t.Fatal(err)
	}
	if len(captured) != 4 {
		t.Fatalf("captured %d neighbor IDs", len(captured))
	}
	for p := 1; p <= 4; p++ {
		want := g.ID(pm.Neighbor(0, p))
		if captured[p-1] != want {
			t.Errorf("NeighborIDs[%d] = %d, want %d", p-1, captured[p-1], want)
		}
	}
}

type captureAlgorithm struct{ out *[]graph.NodeID }

func (captureAlgorithm) Name() string { return "capture" }
func (a captureAlgorithm) NewMachine(info NodeInfo) Program {
	if a.out != nil && info.Degree == 4 {
		*a.out = append([]graph.NodeID(nil), info.NeighborIDs...)
	}
	return captureMachine{}
}

type captureMachine struct{}

func (captureMachine) OnWake(Context)              {}
func (captureMachine) OnMessage(Context, Delivery) {}

func TestAdversaryWakingAwakeNodeIsNoop(t *testing.T) {
	var received []int
	res, err := RunAsync(Config{
		Graph: pairGraph(),
		Model: Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{
			// Node 0 woken twice; second wake must be ignored.
			Schedule: wakeTwice{},
		},
	}, seqAlgorithm{count: 1, bits: 4, received: &received})
	if err != nil {
		t.Fatal(err)
	}
	if len(received) != 1 {
		t.Errorf("OnWake ran more than once: %d messages", len(received))
	}
	_ = res
}

type wakeTwice struct{}

func (wakeTwice) Wakeups(*graph.Graph) []Wakeup {
	return []Wakeup{{Node: 0, At: 0}, {Node: 0, At: 2}}
}

// badPortAlg sends one message from every adversarially woken node on a
// fixed port, which the tests below choose out of range.
type badPortAlg struct{ port int }

func (badPortAlg) Name() string                  { return "bad-port" }
func (a badPortAlg) NewMachine(NodeInfo) Program { return badPortMachine(a) }

type badPortMachine struct{ port int }

func (m badPortMachine) OnWake(ctx Context) {
	if ctx.AdversarialWake() {
		ctx.Send(m.port, testMsg{bits: 1})
	}
}
func (badPortMachine) OnMessage(Context, Delivery) {}

// TestOutOfRangePortPanics pins the port contract of both deterministic
// engines: a port outside 1..degree raises graph.PortMap.Neighbor's "no
// port" panic, including ports that would wrap onto a valid edge if they
// were truncated to the int32 CSR offsets (1<<32+1 is port 1 in 32 bits).
func TestOutOfRangePortPanics(t *testing.T) {
	g := graph.Path(3) // node 0 has degree 1
	model := Model{Knowledge: KT0, Bandwidth: Local}
	engines := []struct {
		name string
		run  func(alg Algorithm) (*Result, error)
	}{
		{"async", func(alg Algorithm) (*Result, error) {
			return RunAsync(Config{Graph: g, Model: model, Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0}}}}, alg)
		}},
		{"sync", func(alg Algorithm) (*Result, error) {
			return RunSync(Config{Graph: g, Model: model, Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0}}}}, AsSync(alg))
		}},
	}
	for _, eng := range engines {
		for _, port := range []int{0, -1, 2, 1 << 31, 1<<32 + 1} {
			t.Run(fmt.Sprintf("%s/port=%d", eng.name, port), func(t *testing.T) {
				var res *Result
				defer func() {
					r := recover()
					want := fmt.Sprintf("graph: node 0 has no port %d (degree 1)", port)
					if s, ok := r.(string); !ok || s != want {
						t.Fatalf("recovered %v (result %+v), want the panic %q", r, res, want)
					}
				}()
				res, _ = eng.run(badPortAlg{port: port})
			})
		}
	}
}

// TestNodeSlotLayout pins the node record at 48 bytes, the size the
// design and the memory report assume: four records span three cache
// lines. int counters keep it there; a wider field would cost a line.
func TestNodeSlotLayout(t *testing.T) {
	if s := unsafe.Sizeof(nodeSlot{}); s != 48 || nodeSlotBytes != 48 {
		t.Fatalf("nodeSlot is %d B (memory report %d B); want 48", s, nodeSlotBytes)
	}
}
