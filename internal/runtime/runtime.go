// Package runtime executes wake-up algorithms with real concurrency: one
// goroutine per node and lock-protected unbounded inboxes as communication
// channels. Message interleaving is determined by the Go scheduler, so
// executions are genuinely asynchronous and non-deterministic — the
// package exists to validate that algorithm correctness does not depend on
// the deterministic event ordering of the sim package, and to demonstrate
// the library running as an actual concurrent system.
//
// Setup (NodeInfo, ports, advice, per-node randomness) and accounting
// (message counters, CONGEST tallies, Result assembly) are the same shared
// harness the deterministic engines use, so a node sees identical static
// state under every executor and a Result field means the same thing.
// Wall-clock time is not simulated: deliveries are immediate, adversarial
// wake times are ordering hints only, and Context.Now reports a per-node
// pseudo-time (the node's delivery count). Timing-derived Result fields
// (WakeAt, Span, WakeSpan, AwakeTime) are therefore not meaningful here;
// complexity measurements belong to package sim.
package runtime

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// Config describes one concurrent execution.
type Config struct {
	Graph *graph.Graph
	Ports *graph.PortMap
	Model sim.Model
	// Schedule provides the adversarial wake-ups; wake times order the
	// initial wake injections.
	Schedule   sim.WakeScheduler
	Seed       int64
	Advice     [][]byte
	AdviceBits []int
	// Observer, when non-nil, receives the engine's event stream; stack
	// several with sim.StackObservers. The engine serializes observer
	// calls behind its accounting mutex, so implementations need not be
	// safe for concurrent use. Event times are the receiving node's
	// pseudo-time (its delivery count); wakes are reported at 0.
	Observer sim.Observer
}

type delivery struct {
	d sim.Delivery
}

type node struct {
	eng   *engine
	index int
	info  sim.NodeInfo
	rng   *rand.Rand

	mu     sync.Mutex
	queue  []delivery
	signal chan struct{}

	awake    atomic.Bool
	advWoken bool // written before the machine starts, read only by its goroutine
	// deliveries counts messages processed by this node's goroutine; it
	// backs Context.Now as a per-node pseudo-time.
	deliveries int64
	machine    sim.Program
}

type engine struct {
	cfg     Config
	g       *graph.Graph
	pm      *graph.PortMap
	s       *sim.Setup
	nodes   []*node
	pending sync.WaitGroup // outstanding wake-ups and messages
	done    chan struct{}

	// mu serializes the shared accounting, the per-node tallies and the
	// observer; all are single-threaded types borrowed from the
	// deterministic engines.
	mu      sync.Mutex
	acct    *sim.Accounting
	tallies []sim.NodeTally
	obs     sim.Observer
	err     error
}

// fail records the first engine error; the run reports it after quiescing.
func (e *engine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// nodeCtx implements sim.Context for the concurrent engine. It is only
// used from the owning node's goroutine.
type nodeCtx struct {
	n *node
}

var _ sim.Context = nodeCtx{}

func (c nodeCtx) Info() sim.NodeInfo { return c.n.info }

// Now returns the node's pseudo-time: the number of messages delivered to
// it so far. Wall-clock time is not modelled, so this is the only engine
// clock available — it increases monotonically per node (0 during an
// adversarial OnWake, k during the handler of the k-th delivery) but is
// not comparable across nodes or with simulated time.
func (c nodeCtx) Now() sim.Time         { return sim.Time(c.n.deliveries) }
func (c nodeCtx) Round() int            { return -1 }
func (c nodeCtx) Rand() *rand.Rand      { return c.n.rng }
func (c nodeCtx) AdversarialWake() bool { return c.n.advWoken }

func (c nodeCtx) Send(port int, m sim.Message) {
	e := c.n.eng
	from := c.n.index
	to := e.pm.Neighbor(from, port) // validates the port (panics like the sim engines)
	e.mu.Lock()
	err := e.acct.Send(&e.tallies[from], from, port, m.Bits())
	if err == nil && e.obs != nil {
		e.obs.OnSend(sim.Time(c.n.deliveries), from, port, m)
	}
	e.mu.Unlock()
	if err != nil {
		e.fail(err)
		return
	}
	// Receiver-side port and sender ID come from the Setup's CSR edge
	// metadata, shared with the deterministic engines.
	ei := e.s.EdgeStart[from] + int32(port) - 1
	e.deliver(to, sim.Delivery{
		Msg:        m,
		Port:       int(e.s.RevPort[ei]),
		SenderPort: port,
		From:       e.s.SenderIDs[from],
	})
}

func (c nodeCtx) SendToID(id graph.NodeID, m sim.Message) {
	e := c.n.eng
	if e.cfg.Model.Knowledge != sim.KT1 {
		panic("runtime: SendToID requires KT1")
	}
	to := e.g.IndexOf(id)
	if to == -1 || !e.g.HasEdge(c.n.index, to) {
		panic(fmt.Sprintf("runtime: node ID %d has no neighbor with ID %d", e.g.ID(c.n.index), id))
	}
	c.Send(e.pm.PortTo(c.n.index, to), m)
}

func (c nodeCtx) Broadcast(m sim.Message) {
	for p := 1; p <= c.n.info.Degree; p++ {
		c.Send(p, m)
	}
}

// deliver enqueues a message for the target node and signals its goroutine.
func (e *engine) deliver(to int, d sim.Delivery) {
	e.pending.Add(1)
	t := e.nodes[to]
	t.mu.Lock()
	t.queue = append(t.queue, delivery{d: d})
	t.mu.Unlock()
	select {
	case t.signal <- struct{}{}:
	default:
	}
}

// loop is the per-node goroutine: drain the inbox, waking on the first
// delivery, until the engine shuts down.
func (n *node) loop(alg sim.Algorithm, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-n.signal:
		case <-n.eng.done:
			return
		}
		for {
			n.mu.Lock()
			if len(n.queue) == 0 {
				n.mu.Unlock()
				break
			}
			d := n.queue[0]
			n.queue = n.queue[1:]
			n.mu.Unlock()
			n.process(alg, d)
			n.eng.pending.Done()
		}
	}
}

// wakeSentinel marks an adversarial wake-up injection.
type wakeSentinel struct{}

func (wakeSentinel) Bits() int { return 0 }

func (n *node) process(alg sim.Algorithm, d delivery) {
	e := n.eng
	_, isWake := d.d.Msg.(wakeSentinel)
	if !n.awake.Load() {
		n.advWoken = isWake
		n.machine = alg.NewMachine(n.info)
		n.awake.Store(true)
		e.mu.Lock()
		e.acct.Result().Events++
		e.acct.Wake(&e.tallies[n.index], 0, isWake)
		if e.obs != nil {
			e.obs.OnWake(0, n.index, isWake)
		}
		e.mu.Unlock()
		n.machine.OnWake(nodeCtx{n: n})
	}
	if !isWake {
		n.deliveries++
		at := sim.Time(n.deliveries)
		e.mu.Lock()
		e.acct.Result().Events++
		e.acct.Deliver(&e.tallies[n.index], n.index, d.d.Port)
		if e.obs != nil {
			e.obs.OnDeliver(at, n.index, d.d)
		}
		e.mu.Unlock()
		n.machine.OnMessage(nodeCtx{n: n}, d.d)
	}
}

// Run executes alg concurrently and blocks until the network quiesces (no
// messages in flight and all inboxes empty). The returned Result carries
// the shared accounting metrics; timing-derived fields are zeroed because
// the engine has no clock (see the package comment).
func Run(cfg Config, alg sim.Algorithm) (*sim.Result, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("runtime: Config.Graph is required")
	}
	if alg == nil {
		return nil, fmt.Errorf("runtime: algorithm is required")
	}
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("runtime: Config.Schedule is required")
	}
	s, err := sim.NewSetup(cfg.Graph, cfg.Ports, cfg.Model, cfg.Seed, cfg.Advice, cfg.AdviceBits)
	if err != nil {
		return nil, err
	}
	g := s.Graph
	e := &engine{
		cfg:     cfg,
		g:       g,
		pm:      s.Ports,
		s:       s,
		acct:    sim.NewAccounting(s, alg.Name(), false),
		tallies: make([]sim.NodeTally, g.N()),
		obs:     cfg.Observer,
		nodes:   make([]*node, g.N()),
		done:    make(chan struct{}),
	}
	for v := 0; v < g.N(); v++ {
		e.nodes[v] = &node{
			eng:   e,
			index: v,
			info:  s.Infos[v],
			// The shared derivation: a node sees the same random stream
			// under every engine for the same seed.
			rng:    s.Rand(v),
			signal: make(chan struct{}, 1),
		}
	}

	var workers sync.WaitGroup
	workers.Add(g.N())
	for _, n := range e.nodes {
		go n.loop(alg, &workers)
	}

	wakeups := cfg.Schedule.Wakeups(g)
	sort.SliceStable(wakeups, func(i, j int) bool { return wakeups[i].At < wakeups[j].At })
	for _, w := range wakeups {
		e.deliver(w.Node, sim.Delivery{Msg: wakeSentinel{}})
	}

	e.pending.Wait()
	close(e.done)
	workers.Wait()

	if e.err != nil {
		return nil, e.err
	}
	e.acct.Finish(0, func(v int) *sim.NodeTally { return &e.tallies[v] })
	res := e.acct.Result()
	if e.obs != nil {
		if err := e.obs.OnFinish(res); err != nil {
			return res, fmt.Errorf("runtime: %w", err)
		}
	}
	return res, nil
}
