package sim

import (
	"fmt"

	"riseandshine/internal/graph"
)

// CausalObserver reconstructs the causal DAG of a wake-up execution from
// the engine's event stream. Every send is attributed to the delivery the
// sender had most recently processed (or, for the burst an algorithm emits
// while waking, to the delivery that woke the sender), and sends are
// matched to their deliveries through the per-directed-edge FIFO order
// the engine guarantees. The depth of a delivery is then the length of
// the causal chain of messages behind it, and the critical path — the
// longest chain ending at the last wake-up — is the empirical counterpart
// of the causal-chain arguments behind the paper's O(ρ_awk + log n) bound:
// on flooding with unit delays it equals the wake source's eccentricity
// exactly, and the gap between a run's wake span and its critical-path
// length is the algorithm's scheduling overhead.
//
// The engine invokes the waking machine's handler, whose sends the
// observer must attribute to the wake-causing delivery, before that
// delivery itself is observed; such a send is recorded as "the delivery
// that woke node u". The wake-causing delivery is always observed before
// any delivery of those sends, so every delivery's depth is one more than
// its parent's, known as it arrives. In a synchronous run all of
// a node's same-round arrivals share the round frontier: wake-burst sends
// attribute to the node's first arrival of the round and computing-step
// sends to its last, both with the same depth semantics.
//
// Memory: one record per delivery plus one pending-send slot per in-flight
// message, so tracing a run costs O(messages) space.
type CausalObserver struct {
	// edges holds each send in flight as a parent code (see parentOfWake).
	edges edgeFIFO[int32]

	lastDeliv []int32 // last delivery index processed at node v; -1 = none yet
	deliv     []causalDelivery
	maxDepth  int32

	woken       []bool
	pendingWake []bool // woken by a message whose delivery has not been observed yet
	wakeAt      []Time
	wakeAdv     []bool
	wakeCause   []int32 // delivery that woke v; -1 for adversarial wakes

	err error
}

// causalDelivery is one delivery event in the DAG: parent is the index of
// the delivery behind its send, or -1 for a send attributed to an
// adversarial wake, and depth the length of its causal chain.
type causalDelivery struct {
	node, from    int32
	parent, depth int32
	at            Time
}

// A send's parent code is the index of the sender's last delivery, -1 for
// an adversarial wake, or parentOfWake(u) for a send emitted while node u
// was waking, resolved to u's wake-causing delivery once that is observed.
func parentOfWake(u int32) int32 { return -u - 2 }

// CausalStep is one event on the critical path: the origin wake-up (depth
// 0) or a delivery at Node that extended the chain to Depth.
type CausalStep struct {
	Node  int  `json:"node"`
	At    Time `json:"at"`
	Depth int  `json:"depth"`
}

// CausalReport is the reconstructed critical path and the causal-depth
// decomposition of one execution.
type CausalReport struct {
	// LastWakeNode and LastWakeAt identify the final wake-up event (ties
	// on time resolve to the deepest causal chain, then the smallest
	// node index, so the report is deterministic).
	LastWakeNode int  `json:"last_wake_node"`
	LastWakeAt   Time `json:"last_wake_at"`
	// CriticalPathLength is the number of deliveries on the causal chain
	// ending at the last wake-up; zero when the last-woken node was woken
	// by the adversary.
	CriticalPathLength int `json:"critical_path_len"`
	// MaxDepth is the longest causal chain over all deliveries (it may
	// exceed CriticalPathLength: echoes after the last wake deepen the
	// DAG without waking anyone).
	MaxDepth int `json:"max_depth"`
	// Path is the critical path itself, from the origin wake-up (depth 0)
	// to the delivery that caused the last wake.
	Path []CausalStep `json:"path"`
	// WakeDepth[v] is the causal depth at which node v woke: 0 for
	// adversarial wakes, the triggering delivery's depth otherwise, and
	// -1 for nodes that never woke. Not serialized — it is O(n) per run.
	WakeDepth []int `json:"-"`
}

// NewCausalObserver returns a causal tracer for one run on g under the
// given port mapping (nil selects identity ports, matching the engines'
// default). The observer must see every event of exactly one execution.
func NewCausalObserver(g *graph.Graph, pm *graph.PortMap) *CausalObserver {
	if pm == nil {
		pm = graph.IdentityPorts(g)
	}
	n := g.N()
	o := &CausalObserver{
		edges:       newEdgeFIFO[int32](pm),
		lastDeliv:   make([]int32, n),
		woken:       make([]bool, n),
		pendingWake: make([]bool, n),
		wakeAt:      make([]Time, n),
		wakeAdv:     make([]bool, n),
		wakeCause:   make([]int32, n),
	}
	for v := 0; v < n; v++ {
		o.lastDeliv[v] = -1
		o.wakeCause[v] = -1
	}
	return o
}

// OnWake implements Observer.
func (o *CausalObserver) OnWake(at Time, node int, adversarial bool) {
	if node < 0 || node >= len(o.woken) {
		o.fail(fmt.Errorf("causal: wake of unknown node %d", node))
		return
	}
	o.woken[node] = true
	o.wakeAt[node] = at
	o.wakeAdv[node] = adversarial
	if !adversarial {
		// The triggering delivery is observed after the waking handler
		// returns; link it up in OnDeliver.
		o.pendingWake[node] = true
	}
}

// OnSend implements Observer: the send joins the edge's FIFO carrying the
// sender's current causal frontier.
func (o *CausalObserver) OnSend(at Time, from, port int, m Message) {
	e := o.edges.out(from, port)
	if e < 0 {
		o.fail(fmt.Errorf("causal: send from node %d on invalid port %d", from, port))
		return
	}
	parent := o.lastDeliv[from]
	if o.pendingWake[from] {
		// Sent while waking: the parent is the (not yet observed) delivery
		// that woke the sender.
		parent = parentOfWake(int32(from))
	}
	o.edges.push(e, parent)
}

// OnDeliver implements Observer: the delivery is matched to the oldest
// in-flight send on its directed edge and takes its depth from the
// delivery behind that send.
func (o *CausalObserver) OnDeliver(at Time, node int, d Delivery) {
	from, e := o.edges.in(node, d.Port, d.SenderPort)
	if e < 0 {
		o.fail(fmt.Errorf("causal: delivery to node %d on port %d, sender port %d, does not match the port map", node, d.Port, d.SenderPort))
		return
	}
	parent, ok := o.edges.pop(e)
	if !ok {
		o.fail(fmt.Errorf("causal: delivery on edge %d→%d without a matching send (observer saw a partial event stream?)", from, node))
		return
	}
	if parent < -1 {
		u := -parent - 2
		if o.pendingWake[u] {
			o.fail(fmt.Errorf("causal: delivery on edge %d→%d observed before the delivery that woke node %d", from, node, u))
			return
		}
		parent = o.wakeCause[u]
	}
	depth := int32(1)
	if parent >= 0 {
		depth += o.deliv[parent].depth
	}
	o.maxDepth = max(o.maxDepth, depth)
	idx := int32(len(o.deliv))
	o.deliv = append(o.deliv, causalDelivery{
		node:   int32(node),
		from:   int32(from),
		parent: parent,
		depth:  depth,
		at:     at,
	})
	o.lastDeliv[node] = idx
	if o.pendingWake[node] {
		o.pendingWake[node] = false
		o.wakeCause[node] = idx
	}
}

// OnFinish implements Observer: it surfaces any event-stream inconsistency
// the tracer detected, failing the run instead of reporting a bogus path.
func (o *CausalObserver) OnFinish(*Result) error { return o.err }

func (o *CausalObserver) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// Report reconstructs the critical path. Call it after the run finished;
// the report is deterministic for deterministic engines.
func (o *CausalObserver) Report() CausalReport {
	rep := CausalReport{LastWakeNode: -1, MaxDepth: int(o.maxDepth), WakeDepth: make([]int, len(o.woken))}
	for v := range o.woken {
		switch {
		case !o.woken[v]:
			rep.WakeDepth[v] = -1
		case o.wakeAdv[v] || o.wakeCause[v] < 0:
			rep.WakeDepth[v] = 0
		default:
			rep.WakeDepth[v] = int(o.deliv[o.wakeCause[v]].depth)
		}
		if !o.woken[v] {
			continue
		}
		last := rep.LastWakeNode
		if last == -1 || o.wakeAt[v] > o.wakeAt[last] ||
			(o.wakeAt[v] == o.wakeAt[last] && rep.WakeDepth[v] > rep.WakeDepth[last]) {
			rep.LastWakeNode = v
		}
	}
	if rep.LastWakeNode == -1 {
		return rep
	}
	last := rep.LastWakeNode
	rep.LastWakeAt = o.wakeAt[last]
	rep.CriticalPathLength = rep.WakeDepth[last]

	// Walk the chain backwards from the delivery that caused the last
	// wake, then reverse; the origin is the adversarial wake of the first
	// sender on the chain (or of the last-woken node itself).
	origin := last
	var rev []CausalStep
	for cur := o.wakeCause[last]; cur >= 0; {
		d := o.deliv[cur]
		rev = append(rev, CausalStep{Node: int(d.node), At: d.at, Depth: int(d.depth)})
		origin = int(d.from)
		cur = d.parent
	}
	rep.Path = make([]CausalStep, 0, len(rev)+1)
	rep.Path = append(rep.Path, CausalStep{Node: origin, At: o.wakeAt[origin], Depth: 0})
	for i := len(rev) - 1; i >= 0; i-- {
		rep.Path = append(rep.Path, rev[i])
	}
	return rep
}

var _ Observer = (*CausalObserver)(nil)
