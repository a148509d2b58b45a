package sim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"riseandshine/internal/graph"
)

// relayAlg forwards a counter along a path, one hop per round, recording
// the round at which each node received it.
type relayAlg struct {
	recvRound *[]int
}

func (relayAlg) Name() string { return "relay" }

func (a relayAlg) NewMachine(info NodeInfo) SyncProgram {
	return &relayMachine{a: a, info: info}
}

type relayMachine struct {
	a     relayAlg
	info  NodeInfo
	local int
	sent  bool
}

func (m *relayMachine) OnWake(Context) {}

func (m *relayMachine) OnRound(ctx Context, inbox []Delivery) {
	m.local++
	if m.sent {
		return
	}
	if ctx.AdversarialWake() && m.local == 1 {
		m.sent = true
		ctx.Send(1, testMsg{bits: 4}) // start the chain rightward
		return
	}
	for _, d := range inbox {
		(*m.a.recvRound) = append((*m.a.recvRound), ctx.Round())
		m.sent = true
		// Forward away from the sender if a second port exists.
		next := 1
		if d.Port == 1 && m.info.Degree >= 2 {
			next = 2
		}
		if !(d.Port == next) {
			ctx.Send(next, testMsg{bits: 4})
		}
		return
	}
}

func TestSyncOneHopPerRound(t *testing.T) {
	var rounds []int
	res, err := RunSync(SyncConfig{
		Graph:    graph.Path(5),
		Model:    Model{Knowledge: KT0, Bandwidth: Local},
		Schedule: WakeSingle(0),
	}, relayAlg{recvRound: &rounds})
	if err != nil {
		t.Fatal(err)
	}
	// Message sent in round 0 reaches node 1 in round 1, node 2 in 2, …
	want := []int{1, 2, 3, 4}
	if len(rounds) != len(want) {
		t.Fatalf("receptions = %v", rounds)
	}
	for i := range want {
		if rounds[i] != want[i] {
			t.Fatalf("receptions = %v, want %v", rounds, want)
		}
	}
	if !res.AllAwake {
		t.Error("relay should wake the whole path")
	}
	if res.Rounds != 4 {
		t.Errorf("rounds = %d, want 4", res.Rounds)
	}
}

// timerAlg is quiet for Delay rounds after waking, then broadcasts once —
// exercising the Quiescer protocol.
type timerAlg struct{ delay int }

func (timerAlg) Name() string { return "timer" }
func (a timerAlg) NewMachine(NodeInfo) SyncProgram {
	return &timerMachine{delay: a.delay}
}

type timerMachine struct {
	delay int
	tick  int
	fired bool
}

var _ Quiescer = (*timerMachine)(nil)

func (m *timerMachine) OnWake(Context) {}

func (m *timerMachine) OnRound(ctx Context, _ []Delivery) {
	m.tick++
	if !m.fired && ctx.AdversarialWake() && m.tick > m.delay {
		m.fired = true
		ctx.Broadcast(testMsg{bits: 4})
	}
}

func (m *timerMachine) Quiescent() bool {
	return m.fired || m.tick > m.delay
}

func TestSyncQuiescerKeepsEngineRunning(t *testing.T) {
	res, err := RunSync(SyncConfig{
		Graph:    graph.Star(6),
		Model:    Model{Knowledge: KT0, Bandwidth: Local},
		Schedule: WakeSingle(0),
	}, timerAlg{delay: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatal("timer broadcast never happened: engine stopped too early")
	}
	if res.Rounds < 7 {
		t.Errorf("rounds = %d, expected the engine to idle through the delay", res.Rounds)
	}
}

func TestSyncRoundLimit(t *testing.T) {
	_, err := RunSync(SyncConfig{
		Graph:     graph.Path(3),
		Model:     Model{Knowledge: KT0, Bandwidth: Local},
		Schedule:  WakeSingle(0),
		MaxRounds: 5,
	}, timerAlg{delay: 50})
	if err == nil || !strings.Contains(err.Error(), "round limit") {
		t.Fatalf("expected round-limit error, got %v", err)
	}
}

func TestSyncLateAdversarialWake(t *testing.T) {
	var rounds []int
	res, err := RunSync(SyncConfig{
		Graph:    graph.Path(3),
		Model:    Model{Knowledge: KT0, Bandwidth: Local},
		Schedule: WakeSet{Nodes: []int{0}, At: 9},
	}, relayAlg{recvRound: &rounds})
	if err != nil {
		t.Fatal(err)
	}
	if res.WakeAt[0] != 9 {
		t.Errorf("wake time = %v, want 9", res.WakeAt[0])
	}
	// Rounds are counted from the first wake round.
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Rounds)
	}
}

// TestSyncWakeTimeLimit: rounds are ints and reported wake times are
// Times, so a wake at or above 2⁵³ — where whole rounds stop being exact
// Times, and from 2⁶³ stop fitting an int — is rejected before the run,
// with an error naming the limit. At 2⁵² the run is exact, and a run that
// would reach round 2⁵³ stops with an error instead of misreporting.
func TestSyncWakeTimeLimit(t *testing.T) {
	run := func(at Time) (*Result, error) {
		var rounds []int
		return RunSync(SyncConfig{
			Graph:    graph.Path(3),
			Model:    Model{Knowledge: KT0, Bandwidth: Local},
			Schedule: WakeSet{Nodes: []int{0}, At: at},
		}, relayAlg{recvRound: &rounds})
	}
	for _, at := range []Time{1 << 53, 1e19, math.MaxFloat64} {
		res, err := run(at)
		if err == nil || !strings.Contains(err.Error(), "limit 9.007199254740992e+15") {
			t.Errorf("wake at %v: error %v, want one naming the limit 2⁵³", at, err)
		}
		if res != nil {
			t.Errorf("wake at %v: got a Result beside the error", at)
		}
	}
	res, err := run(1 << 52)
	if err != nil {
		t.Fatalf("wake at 2⁵²: %v", err)
	}
	if want := []Time{1 << 52, 1<<52 + 1, 1<<52 + 2}; !slices.Equal(res.WakeAt, want) {
		t.Errorf("wake at 2⁵²: WakeAt = %v, want %v", res.WakeAt, want)
	}
	if _, err := run(1<<53 - 1); err == nil || !strings.Contains(err.Error(), "round 9007199254740992") {
		t.Errorf("wake at 2⁵³-1: error %v, want the round limit at 2⁵³", err)
	}
}

func TestSyncValidation(t *testing.T) {
	var rounds []int
	alg := relayAlg{recvRound: &rounds}
	if _, err := RunSync(SyncConfig{}, alg); err == nil {
		t.Error("expected missing-graph error")
	}
	if _, err := RunSync(SyncConfig{Graph: graph.Path(2)}, alg); err == nil {
		t.Error("expected missing-schedule error")
	}
	if _, err := RunSync(SyncConfig{
		Graph:    graph.Path(2),
		Schedule: WakeSingle(0),
		Advice:   make([][]byte, 9),
	}, alg); err == nil {
		t.Error("expected advice-mismatch error")
	}
}

// broadcastOnWake is a message-driven async algorithm used to check the
// AsSync adapter.
type broadcastOnWake struct{}

func (broadcastOnWake) Name() string                { return "bcast" }
func (broadcastOnWake) NewMachine(NodeInfo) Program { return bcastMachine{} }

type bcastMachine struct{}

func (bcastMachine) OnWake(ctx Context)          { ctx.Broadcast(testMsg{bits: 4}) }
func (bcastMachine) OnMessage(Context, Delivery) {}

func TestAsSyncMatchesAsyncUnitDelays(t *testing.T) {
	g := graph.RandomConnected(50, 0.08, newTestRand(21))
	async, err := RunAsync(Config{
		Graph: g,
		Model: Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSingle(0),
			Delays:   UnitDelay{},
		},
	}, broadcastOnWake{})
	if err != nil {
		t.Fatal(err)
	}
	sync, err := RunSync(SyncConfig{
		Graph:    g,
		Model:    Model{Knowledge: KT0, Bandwidth: Local},
		Schedule: WakeSingle(0),
	}, AsSync(broadcastOnWake{}))
	if err != nil {
		t.Fatal(err)
	}
	if async.Messages != sync.Messages {
		t.Errorf("messages differ: async %d vs sync %d", async.Messages, sync.Messages)
	}
	if !async.AllAwake || !sync.AllAwake {
		t.Error("not all awake")
	}
	if Time(sync.Rounds) != async.Span {
		t.Errorf("span differs: async %v vs sync %d rounds", async.Span, sync.Rounds)
	}
	for v := range async.WakeAt {
		if async.WakeAt[v] != sync.WakeAt[v] {
			t.Fatalf("wake time of node %d differs: %v vs %v", v, async.WakeAt[v], sync.WakeAt[v])
		}
	}
}

func TestSyncPortsUsedTracking(t *testing.T) {
	res, err := RunSync(SyncConfig{
		Graph:      graph.Star(5),
		Model:      Model{Knowledge: KT0, Bandwidth: Local},
		Schedule:   WakeSingle(0),
		TrackPorts: true,
	}, AsSync(broadcastOnWake{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.PortsUsed == nil {
		t.Fatal("PortsUsed not tracked")
	}
	if res.PortsUsed[0] != 4 {
		t.Errorf("center used %d ports, want 4", res.PortsUsed[0])
	}
	for v := 1; v < 5; v++ {
		if res.PortsUsed[v] != 1 {
			t.Errorf("leaf %d used %d ports, want 1", v, res.PortsUsed[v])
		}
	}
}

func TestResultHelpers(t *testing.T) {
	res := &Result{
		N:               3,
		AdversaryWoken:  []bool{true, false, true},
		SentBy:          []int{5, 2, 9},
		AdviceTotalBits: 30,
	}
	set := res.AwakeSet()
	if len(set) != 2 || set[0] != 0 || set[1] != 2 {
		t.Errorf("AwakeSet = %v", set)
	}
	if res.MaxSentByNode() != 9 {
		t.Errorf("MaxSentByNode = %d", res.MaxSentByNode())
	}
	if res.AdviceAvgBits() != 10 {
		t.Errorf("AdviceAvgBits = %v", res.AdviceAvgBits())
	}
	if s := res.String(); !strings.Contains(s, "msgs") {
		t.Errorf("String output suspicious: %s", s)
	}
}
