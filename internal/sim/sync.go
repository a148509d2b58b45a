package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"riseandshine/internal/graph"
)

// DefaultMaxRounds caps synchronous executions unless overridden.
const DefaultMaxRounds = 1_000_000

// SyncConfig describes one execution of the synchronous engine. Message
// delays are fixed at one round, so only the wake schedule of the
// adversary applies; wake times are truncated to round numbers.
type SyncConfig struct {
	Graph      *graph.Graph
	Ports      *graph.PortMap
	Model      Model
	Schedule   WakeScheduler
	Seed       int64
	Advice     [][]byte
	AdviceBits []int
	// Setup, when non-nil, supplies a prebuilt harness Setup (same contract
	// as Config.Setup on the asynchronous engine): it must match Graph,
	// Ports, Model, and Advice, and is reseeded to Seed for the run.
	Setup *Setup
	// MaxRounds overrides DefaultMaxRounds when positive.
	MaxRounds int
	// TrackPorts enables Result.PortsUsed accounting.
	TrackPorts bool
	// StrictCongest makes the run fail on CONGEST violations.
	StrictCongest bool
	// Observer, when non-nil, receives the engine's event stream with
	// round numbers as times; stack several with StackObservers.
	Observer Observer
	// Tracer, when non-nil, receives setup/run/finish execution spans on
	// track 0 (same contract as Config.Tracer on the asynchronous engine).
	Tracer ExecTracer
}

type pendingMsg struct {
	seq int64
	to  int
	d   Delivery
}

// syncEngine holds the mutable state of a synchronous run. Setup,
// accounting, and observation are the shared harness types; the engine
// owns the round structure and the in-flight message buffer.
type syncEngine struct {
	cfg          SyncConfig
	g            *graph.Graph
	pm           *graph.PortMap
	s            *Setup
	acct         *Accounting
	obs          Observer
	round        int
	tallies      []NodeTally // per-node accounting; tallies[v].awake is node v's awake flag
	machines     []SyncProgram
	newMachineFn func(NodeInfo) SyncProgram
	rands        []*rand.Rand
	inflight     []pendingMsg // sent this round, delivered next round
	seq          int64
	err          error
}

type syncCtx struct {
	e    *syncEngine
	node int
}

var _ Context = syncCtx{}

func (c syncCtx) Info() NodeInfo        { return c.e.s.Infos[c.node] }
func (c syncCtx) Now() Time             { return Time(c.e.round) }
func (c syncCtx) Round() int            { return c.e.round }
func (c syncCtx) Rand() *rand.Rand      { return c.e.rands[c.node] }
func (c syncCtx) AdversarialWake() bool { return c.e.tallies[c.node].adv }

func (c syncCtx) Send(port int, m Message) { c.e.send(c.node, port, m) }

func (c syncCtx) SendToID(id graph.NodeID, m Message) { c.e.sendToID(c.node, id, m) }

func (c syncCtx) Broadcast(m Message) {
	for p := 1; p <= c.e.g.Degree(c.node); p++ {
		c.e.send(c.node, p, m)
	}
}

// RunSync executes alg in lock-step rounds until the network is quiescent:
// no in-flight messages, no pending adversarial wake-ups, and every awake
// machine reporting quiescence (machines that do not implement Quiescer
// are treated as quiescent).
func RunSync(cfg SyncConfig, alg SyncAlgorithm) (*Result, error) {
	tr := cfg.Tracer
	var t0 int64
	if tr != nil {
		tr.ExecBegin(1)
		t0 = tr.ExecNow()
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sim: SyncConfig.Graph is required")
	}
	if alg == nil {
		return nil, fmt.Errorf("sim: algorithm is required")
	}
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("sim: SyncConfig.Schedule is required")
	}
	s := cfg.Setup
	if s == nil {
		var err error
		s, err = NewSetup(cfg.Graph, cfg.Ports, cfg.Model, cfg.Seed, cfg.Advice, cfg.AdviceBits)
		if err != nil {
			return nil, err
		}
	} else {
		if s.Graph != cfg.Graph {
			return nil, fmt.Errorf("sim: SyncConfig.Setup was built for a different graph")
		}
		if s.Model != cfg.Model {
			return nil, fmt.Errorf("sim: SyncConfig.Setup was built for model %v, config wants %v", s.Model, cfg.Model)
		}
		if cfg.Ports != nil && s.Ports != cfg.Ports {
			return nil, fmt.Errorf("sim: SyncConfig.Setup was built for a different port map")
		}
		s = s.WithSeed(cfg.Seed)
	}
	g := s.Graph
	wakeups := cfg.Schedule.Wakeups(g)
	if err := validateSchedule(g, wakeups); err != nil {
		return nil, err
	}

	n := g.N()
	e := &syncEngine{
		cfg:          cfg,
		g:            g,
		pm:           s.Ports,
		s:            s,
		acct:         NewAccounting(s, alg.Name(), cfg.TrackPorts),
		obs:          cfg.Observer,
		tallies:      make([]NodeTally, n),
		machines:     make([]SyncProgram, n),
		newMachineFn: alg.NewMachine,
		rands:        make([]*rand.Rand, n),
	}
	res := e.acct.Result()

	// Bucket the wake schedule by round.
	wakeByRound := make(map[int][]int)
	lastWakeRound := 0
	firstWakeRound := int(^uint(0) >> 1)
	for _, w := range wakeups {
		r := int(w.At)
		wakeByRound[r] = append(wakeByRound[r], w.Node)
		if r > lastWakeRound {
			lastWakeRound = r
		}
		if r < firstWakeRound {
			firstWakeRound = r
		}
	}
	//lint:maporder-ok sorts each bucket in place; no state crosses buckets
	for _, nodes := range wakeByRound {
		sort.Ints(nodes)
	}

	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}

	var t1 int64
	if tr != nil {
		t1 = tr.ExecNow()
		tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecSetup, Start: t0, End: t1})
	}

	lastActive := firstWakeRound
	for e.round = firstWakeRound; ; e.round++ {
		if e.round-firstWakeRound > maxRounds {
			return nil, fmt.Errorf("sim: round limit %d exceeded (algorithm %q may not terminate)", maxRounds, alg.Name())
		}
		active := false

		// Snapshot last round's sends before any handler runs this round:
		// everything sent during this round (including by OnWake of nodes
		// the adversary wakes below) is delivered next round.
		arrivals := e.inflight
		e.inflight = nil

		// 1. Adversarial wake-ups scheduled for this round.
		for _, v := range wakeByRound[e.round] {
			if !e.tallies[v].awake {
				e.wakeNode(v, true)
				active = true
			}
		}
		delete(wakeByRound, e.round)

		// 2. Deliveries: messages sent in the previous round.
		inbox := make(map[int][]Delivery)
		var receivers []int
		for _, pm := range arrivals {
			if _, ok := inbox[pm.to]; !ok {
				receivers = append(receivers, pm.to)
			}
			inbox[pm.to] = append(inbox[pm.to], pm.d)
			active = true
		}
		sort.Ints(receivers)
		for _, v := range receivers {
			if !e.tallies[v].awake {
				e.wakeNode(v, false)
			}
			for _, d := range inbox[v] {
				e.acct.Deliver(&e.tallies[v], v, d.Port)
				if e.obs != nil {
					e.obs.OnDeliver(Time(e.round), v, d)
				}
			}
		}
		if e.err != nil {
			return nil, e.err
		}

		// 3. Computing step for every awake node.
		for v := 0; v < n; v++ {
			if !e.tallies[v].awake {
				continue
			}
			e.machines[v].OnRound(syncCtx{e: e, node: v}, inbox[v])
			if e.err != nil {
				return nil, e.err
			}
		}
		res.Events++
		if len(e.inflight) > 0 {
			active = true
		}
		if active {
			lastActive = e.round
		}

		// 4. Quiescence check.
		if len(e.inflight) == 0 && len(wakeByRound) == 0 && e.allQuiescent() {
			break
		}
	}

	var t2 int64
	if tr != nil {
		t2 = tr.ExecNow()
		tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecRun, Events: int64(res.Events), Start: t1, End: t2})
	}

	res.Rounds = lastActive - firstWakeRound
	e.acct.Finish(Time(lastActive), func(v int) *NodeTally { return &e.tallies[v] })
	if e.obs != nil {
		if err := e.obs.OnFinish(res); err != nil {
			return res, fmt.Errorf("sim: %w", err)
		}
	}
	if cfg.StrictCongest {
		if err := e.acct.CongestError(); err != nil {
			return res, err
		}
	}
	if tr != nil {
		tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecFinish, Start: t2, End: tr.ExecNow()})
	}
	return res, nil
}

func (e *syncEngine) allQuiescent() bool {
	for v, m := range e.machines {
		if !e.tallies[v].awake || m == nil {
			continue
		}
		if q, ok := m.(Quiescer); ok && !q.Quiescent() {
			return false
		}
	}
	return true
}

func (e *syncEngine) wakeNode(v int, adversarial bool) {
	e.acct.Wake(&e.tallies[v], Time(e.round), adversarial)
	if e.rands[v] == nil {
		e.rands[v] = e.s.Rand(v)
	}
	if e.obs != nil {
		e.obs.OnWake(Time(e.round), v, adversarial)
	}
	e.machines[v] = e.newMachineFn(e.s.Infos[v])
	e.machines[v].OnWake(syncCtx{e: e, node: v})
}

func (e *syncEngine) send(from, port int, m Message) {
	if e.err != nil {
		return
	}
	// CSR edge metadata shared with the asynchronous engine: receiver and
	// receiver-side port are precomputed per directed edge, so the
	// per-message path does no PortTo binary search.
	s := e.s
	ei := s.edge(from, port)
	to := int(s.EdgeTo[ei])
	if err := e.acct.Send(&e.tallies[from], from, port, m.Bits()); err != nil {
		e.err = err
		return
	}
	if e.obs != nil {
		e.obs.OnSend(Time(e.round), from, port, m)
	}
	e.inflight = append(e.inflight, pendingMsg{
		seq: e.seq,
		to:  to,
		d: Delivery{
			Msg:        m,
			Port:       int(s.RevPort[ei]),
			SenderPort: port,
			From:       s.SenderIDs[from],
		},
	})
	e.seq++
}

func (e *syncEngine) sendToID(from int, id graph.NodeID, m Message) {
	if e.cfg.Model.Knowledge != KT1 {
		e.err = fmt.Errorf("sim: SendToID requires KT1 (model is %v)", e.cfg.Model.Knowledge)
		return
	}
	to := e.g.IndexOf(id)
	if to == -1 || !e.g.HasEdge(from, to) {
		e.err = fmt.Errorf("sim: node ID %d has no neighbor with ID %d", e.g.ID(from), id)
		return
	}
	e.send(from, e.pm.PortTo(from, to), m)
}
