package sim

import (
	"strings"
	"testing"

	"riseandshine/internal/graph"
)

// ctxProbe records what the Context exposes inside handlers.
type ctxProbe struct {
	infoN   int
	now     Time
	round   int
	sent    bool
	targets []graph.NodeID
}

// asyncProbeAlg exercises Context.Info/Now/Round inside an asynchronous handler.
type asyncProbeAlg struct{ p *ctxProbe }

func (asyncProbeAlg) Name() string { return "async-ctx-probe" }
func (a asyncProbeAlg) NewMachine(info NodeInfo) Program {
	return &asyncProbeMachine{p: a.p}
}

type asyncProbeMachine struct{ p *ctxProbe }

func (m *asyncProbeMachine) OnWake(ctx Context) {
	if !ctx.AdversarialWake() {
		return
	}
	m.p.infoN = ctx.Info().N
	m.p.now = ctx.Now()
	m.p.round = ctx.Round()
	if ctx.Info().Degree > 0 {
		ctx.Send(1, testMsg{bits: 4})
	}
}
func (m *asyncProbeMachine) OnMessage(Context, Delivery) {}

func TestAsyncContextAccessors(t *testing.T) {
	p := &ctxProbe{}
	_, err := RunAsync(Config{
		Graph: graph.Path(3),
		Model: Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeSet{Nodes: []int{0}, At: 2.5},
		},
	}, asyncProbeAlg{p: p})
	if err != nil {
		t.Fatal(err)
	}
	if p.infoN != 3 {
		t.Errorf("Info().N = %d", p.infoN)
	}
	if p.now != 2.5 {
		t.Errorf("Now() = %v, want 2.5", p.now)
	}
	if p.round != -1 {
		t.Errorf("Round() = %d, want -1 in the async engine", p.round)
	}
}

// syncIDAlg exercises Context.SendToID and Info in synchronous rounds under KT1.
type syncIDAlg struct{ p *ctxProbe }

func (syncIDAlg) Name() string { return "sync-id" }
func (a syncIDAlg) NewMachine(info NodeInfo) SyncProgram {
	return &syncIDMachine{p: a.p, info: info}
}

type syncIDMachine struct {
	p    *ctxProbe
	info NodeInfo
	sent bool
}

func (m *syncIDMachine) OnWake(Context) {}

func (m *syncIDMachine) OnRound(ctx Context, _ []Delivery) {
	if m.sent || !ctx.AdversarialWake() {
		return
	}
	m.sent = true
	m.p.infoN = ctx.Info().N
	m.p.now = ctx.Now()
	for _, id := range m.info.NeighborIDs {
		ctx.SendToID(id, testMsg{bits: 4})
		m.p.targets = append(m.p.targets, id)
	}
}

func TestSyncSendToID(t *testing.T) {
	p := &ctxProbe{}
	res, err := RunSync(Config{
		Graph:     graph.Star(5),
		Model:     Model{Knowledge: KT1, Bandwidth: Local},
		Adversary: Adversary{Schedule: WakeSingle(0)},
	}, syncIDAlg{p: p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	if len(p.targets) != 4 {
		t.Errorf("sent to %d neighbors", len(p.targets))
	}
	if p.infoN != 5 || p.now != 0 {
		t.Errorf("Info().N=%d Now()=%v", p.infoN, p.now)
	}
}

func TestSyncSendToIDRequiresKT1(t *testing.T) {
	p := &ctxProbe{}
	_, err := RunSync(Config{
		Graph:     graph.Star(3),
		Model:     Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{Schedule: WakeSingle(1)}, // a leaf: NeighborIDs nil, but force a call
	}, forcedIDAlg{})
	if err == nil || !strings.Contains(err.Error(), "KT1") {
		t.Fatalf("expected KT1 error, got %v", err)
	}
	_ = p
}

type forcedIDAlg struct{}

func (forcedIDAlg) Name() string { return "forced-id" }
func (forcedIDAlg) NewMachine(NodeInfo) SyncProgram {
	return forcedIDMachine{}
}

type forcedIDMachine struct{}

func (forcedIDMachine) OnWake(Context) {}
func (forcedIDMachine) OnRound(ctx Context, _ []Delivery) {
	ctx.SendToID(0, testMsg{bits: 4})
}

func TestSyncSendToIDRejectsNonNeighbor(t *testing.T) {
	_, err := RunSync(Config{
		Graph:     graph.Path(3),
		Model:     Model{Knowledge: KT1, Bandwidth: Local},
		Adversary: Adversary{Schedule: WakeSingle(0)},
	}, forcedNonNeighborAlg{})
	if err == nil || !strings.Contains(err.Error(), "no neighbor") {
		t.Fatalf("expected non-neighbor error, got %v", err)
	}
}

type forcedNonNeighborAlg struct{}

func (forcedNonNeighborAlg) Name() string { return "forced-nn" }
func (forcedNonNeighborAlg) NewMachine(NodeInfo) SyncProgram {
	return forcedNonNeighborMachine{}
}

type forcedNonNeighborMachine struct{}

func (forcedNonNeighborMachine) OnWake(Context) {}
func (forcedNonNeighborMachine) OnRound(ctx Context, _ []Delivery) {
	if ctx.Round() == 0 {
		ctx.SendToID(2, testMsg{bits: 4}) // node 2 is two hops away
	}
}

func TestSyncCongestAccounting(t *testing.T) {
	var received []int
	res, err := RunSync(Config{
		Graph:     graph.Path(2),
		Model:     Model{Knowledge: KT0, Bandwidth: Congest},
		Adversary: Adversary{Schedule: WakeSingle(0)},
	}, AsSync(seqAlgorithm{count: 2, bits: 500, received: &received}))
	if err != nil {
		t.Fatal(err)
	}
	if res.CongestViolations != 2 {
		t.Errorf("violations = %d", res.CongestViolations)
	}
	g, model := graph.Path(2), Model{Knowledge: KT0, Bandwidth: Congest}
	_, err = RunSync(Config{
		Graph:     g,
		Model:     model,
		Adversary: Adversary{Schedule: WakeSingle(0)},
		Observer:  NewModelCheck(g, nil, model),
	}, AsSync(seqAlgorithm{count: 1, bits: 500, received: &received}))
	if err == nil || !strings.Contains(err.Error(), "CONGEST") {
		t.Errorf("model check passed an oversized message: %v", err)
	}
}

func TestResultStringHandlesInfinity(t *testing.T) {
	r := &Result{Algorithm: "x", N: 1}
	if s := r.String(); !strings.Contains(s, "x:") {
		t.Errorf("string = %q", s)
	}
	empty := &Result{}
	if empty.AdviceAvgBits() != 0 {
		t.Error("zero-node advice average should be 0")
	}
}
