package sim

import (
	"fmt"

	"riseandshine/internal/graph"
)

// ModelCheck is an observer that checks an engine's event stream against
// the paper's model (§1.1–1.2) directly, rather than by comparing engines
// with each other, which cannot catch a bug they share. It checks that:
//
//   - event times never decrease; a node wakes at most once, and a node
//     woken by a message wakes at that message's delivery time;
//   - a send comes from an awake node on one of its ports and, under
//     CONGEST, carries at most the model's bit limit;
//   - a delivery goes to an awake node, its Port and SenderPort match the
//     port map, and From is the sender's ID under KT1 and -1 under KT0;
//   - each delivery carries the payload of the oldest send in flight on
//     its directed edge (FIFO), and its time t and that send's time s
//     satisfy s < t ≤ s + 1 (τ = 1), with s + 1 the engines' own float sum;
//   - at finish no message is in flight, and Messages, AwakeCount, SentBy
//     and ReceivedBy equal the checker's own tallies, as does PortsUsed
//     (when the run tracks ports) with the distinct ports each node sent
//     or received on.
//
// Payloads are compared through the %#v hash DigestObserver uses. The
// first violation is kept and returned from OnFinish, which fails the run
// with a "sim: modelcheck: …" error. Like every observer it holds one
// run's state, so attach a fresh one to every run.
type ModelCheck struct {
	g     *graph.Graph
	model Model
	limit int // CONGEST bit limit; 0 = none
	edges edgeFIFO[checkedSend]

	now      Time
	awake    []bool
	wakeAt   []Time
	byMsg    []bool // woken by a message whose delivery is not yet seen
	sent     []int
	received []int
	portUsed []bool // by out-edge: the node sent or received on the port
	err      error
}

// checkedSend is one send in flight: its time and payload hash.
type checkedSend struct {
	at   Time
	hash uint64
}

// NewModelCheck returns a model checker for one run on g under the given
// port mapping (nil selects identity ports, matching the engines' default)
// and model.
func NewModelCheck(g *graph.Graph, pm *graph.PortMap, model Model) *ModelCheck {
	if pm == nil {
		pm = graph.IdentityPorts(g)
	}
	n := g.N()
	edges := newEdgeFIFO[checkedSend](pm)
	return &ModelCheck{
		g:        g,
		model:    model,
		limit:    model.congestLimit(n),
		edges:    edges,
		awake:    make([]bool, n),
		wakeAt:   make([]Time, n),
		byMsg:    make([]bool, n),
		sent:     make([]int, n),
		received: make([]int, n),
		portUsed: make([]bool, len(edges.to)),
	}
}

// OnWake implements Observer.
func (o *ModelCheck) OnWake(at Time, node int, adversarial bool) {
	if !o.advance(at) {
		return
	}
	switch {
	case node < 0 || node >= len(o.awake):
		o.fail("wake of unknown node %d", node)
	case o.awake[node]:
		o.fail("node %d woke twice (at %v and %v)", node, o.wakeAt[node], at)
	default:
		o.awake[node] = true
		o.wakeAt[node] = at
		o.byMsg[node] = !adversarial
	}
}

// OnSend implements Observer.
func (o *ModelCheck) OnSend(at Time, from, port int, m Message) {
	if !o.advance(at) {
		return
	}
	e := o.edges.out(from, port)
	switch {
	case e < 0:
		o.fail("send from node %d on invalid port %d", from, port)
	case !o.awake[from]:
		o.fail("sleeping node %d sent at %v", from, at)
	case o.limit > 0 && m.Bits() > o.limit:
		o.fail("node %d sent %d bits, above the CONGEST limit of %d", from, m.Bits(), o.limit)
	default:
		o.edges.push(e, checkedSend{at: at, hash: digestMessage(fnvOffset, m)})
		o.sent[from]++
		o.portUsed[e] = true
	}
}

// OnDeliver implements Observer.
func (o *ModelCheck) OnDeliver(at Time, node int, d Delivery) {
	if !o.advance(at) {
		return
	}
	if node < 0 || node >= len(o.awake) || !o.awake[node] {
		o.fail("delivery at %v to node %d, which is not awake", at, node)
		return
	}
	if o.byMsg[node] {
		o.byMsg[node] = false
		if o.wakeAt[node] != at {
			o.fail("node %d woke at %v, but the message that woke it arrived at %v", node, o.wakeAt[node], at)
			return
		}
	}
	from, e := o.edges.in(node, d.Port, d.SenderPort)
	if e < 0 {
		o.fail("delivery to node %d on port %d, sender port %d, does not match the port map", node, d.Port, d.SenderPort)
		return
	}
	want := graph.NodeID(-1)
	if o.model.Knowledge == KT1 {
		want = o.g.ID(from)
	}
	if d.From != want {
		o.fail("delivery %d→%d reports sender ID %d under %v, want %d", from, node, d.From, o.model.Knowledge, want)
		return
	}
	s, ok := o.edges.pop(e)
	switch {
	case !ok:
		o.fail("delivery %d→%d at %v without a send in flight on the edge", from, node, at)
	case s.hash != digestMessage(fnvOffset, d.Msg):
		o.fail("delivery %d→%d at %v is not the edge's oldest send in flight (FIFO)", from, node, at)
	case !(s.at < at && at <= s.at+1):
		o.fail("message %d→%d sent at %v arrived at %v, outside (0, τ]", from, node, s.at, at)
	default:
		o.received[node]++
		o.portUsed[o.edges.out(node, d.Port)] = true
	}
}

// OnFinish implements Observer: it returns the first violation, or checks
// that every message arrived and that res agrees with the checker's tallies.
func (o *ModelCheck) OnFinish(res *Result) error {
	if o.err != nil {
		return o.err
	}
	n := len(o.awake)
	if len(res.SentBy) != n || len(res.ReceivedBy) != n {
		return fmt.Errorf("modelcheck: Result has %d SentBy and %d ReceivedBy entries for %d nodes",
			len(res.SentBy), len(res.ReceivedBy), n)
	}
	var awake, sent, received int
	for v := 0; v < n; v++ {
		if o.awake[v] {
			awake++
		}
		sent += o.sent[v]
		received += o.received[v]
		if res.SentBy[v] != o.sent[v] || res.ReceivedBy[v] != o.received[v] {
			return fmt.Errorf("modelcheck: node %d sent %d and received %d messages, Result says %d and %d",
				v, o.sent[v], o.received[v], res.SentBy[v], res.ReceivedBy[v])
		}
	}
	if sent != received {
		return fmt.Errorf("modelcheck: %d of %d messages still in flight at finish", sent-received, sent)
	}
	if res.Messages != sent || res.AwakeCount != awake {
		return fmt.Errorf("modelcheck: Result reports %d messages and %d awake, the event stream %d and %d",
			res.Messages, res.AwakeCount, sent, awake)
	}
	if res.PortsUsed == nil {
		return nil
	}
	if len(res.PortsUsed) != n {
		return fmt.Errorf("modelcheck: Result has %d PortsUsed entries for %d nodes", len(res.PortsUsed), n)
	}
	start := o.edges.start
	for v := 0; v < n; v++ {
		used := 0
		for _, u := range o.portUsed[start[v]:start[v+1]] {
			if u {
				used++
			}
		}
		if res.PortsUsed[v] != used {
			return fmt.Errorf("modelcheck: node %d used %d ports, Result says %d", v, used, res.PortsUsed[v])
		}
	}
	return nil
}

// advance checks that event times never decrease, recording the first
// violation; it reports whether the event may be checked further.
func (o *ModelCheck) advance(at Time) bool {
	if o.err != nil {
		return false
	}
	if !(at >= o.now) { // NaN fails too
		o.fail("time went back from %v to %v", o.now, at)
		return false
	}
	o.now = at
	return true
}

func (o *ModelCheck) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf("modelcheck: "+format, args...)
	}
}

var _ Observer = (*ModelCheck)(nil)
