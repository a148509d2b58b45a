package core

import (
	"cmp"
	"fmt"
	"slices"

	"riseandshine/internal/advice"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// CENOracle implements the child-encoding scheme (𝖢𝖤𝖭) of Theorem 5(B).
// The oracle computes a BFS tree and, per node w, stores the tuple
// (p_w, fc_w, next_w):
//
//   - p_w: the port at w leading to its tree parent;
//   - fc_w: the port at w leading to its first child — the root of the
//     balanced binary heap into which w's children are organized;
//   - next_w: a pair of ports at w's parent leading to w's two successors
//     in that sibling heap (its "next siblings").
//
// Every node thus stores O(1) port numbers — O(log n) bits — and the
// information required to recover a node's (possibly huge) child list is
// distributed among the children themselves, reachable through a binary
// dissemination relayed by the parent. This costs an O(log n) factor in
// time: the scheme runs in O(D log n) time with O(n) messages.
//
// The brief announcement's protocol description is cut short after the
// advice layout (§4.2.1); the message flow implemented here follows the
// stated tuple semantics: a waking node w sends its next_w pair to its
// parent, which relays plain wake-ups over those two ports, and w
// additionally wakes its first child directly; each woken sibling repeats
// the procedure, traversing the sibling heap with two messages per child.
type CENOracle struct {
	// Root selects the BFS root.
	Root int
	// Unary is an ablation switch: organize siblings in a linked list
	// (one next pointer) instead of a balanced binary heap. Dissemination
	// among the children of a degree-Δ node then takes Θ(Δ) time instead
	// of O(log Δ), degrading the scheme to O(D·Δ_max) time and isolating
	// the contribution of the binary encoding to Theorem 5(B)'s bound.
	Unary bool
}

var _ advice.Oracle = CENOracle{}

// Name implements advice.Oracle.
func (CENOracle) Name() string { return "child-encoding" }

// cenWidth is the fixed port-number width used in CEN advice so that
// decoding is self-contained: ports at the parent can be as large as the
// parent's degree, which w does not know, so all ports use ⌈log2 n⌉+1 bits.
func cenWidth(n int) int { return advice.BitsFor(n) + 1 }

// Advise implements advice.Oracle.
func (o CENOracle) Advise(g *graph.Graph, pm *graph.PortMap) ([][]byte, []int, error) {
	if o.Root < 0 || o.Root >= g.N() {
		return nil, nil, fmt.Errorf("core: BFS root %d out of range [0,%d)", o.Root, g.N())
	}
	if !g.Connected() {
		return nil, nil, graph.ErrDisconnected
	}
	parent, _ := g.BFSTree(o.Root)

	// children[u] sorted by port number at u: the heap order.
	children := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		if p := parent[v]; p != -1 {
			children[p] = append(children[p], v)
		}
	}
	for u, cs := range children {
		slices.SortFunc(cs, func(a, b int) int { return cmp.Compare(pm.PortTo(u, a), pm.PortTo(u, b)) })
	}

	w := cenWidth(g.N())
	bits := make([][]byte, g.N())
	lengths := make([]int, g.N())
	// position[v] = 1-based heap index of v among its siblings.
	position := make([]int, g.N())
	for u := range children {
		for i, c := range children[u] {
			position[c] = i + 1
		}
	}
	for v := 0; v < g.N(); v++ {
		var wr advice.Writer
		// p_v
		if p := parent[v]; p != -1 {
			wr.WriteBool(true)
			wr.WriteBits(uint64(pm.PortTo(v, p)), w)
		} else {
			wr.WriteBool(false)
		}
		// fc_v
		if len(children[v]) > 0 {
			wr.WriteBool(true)
			wr.WriteBits(uint64(pm.PortTo(v, children[v][0])), w)
		} else {
			wr.WriteBool(false)
		}
		// next_v: successors of v's position in its parent's child list —
		// heap children (2i, 2i+1), or just i+1 under the unary ablation.
		// The ports are at the parent.
		if p := parent[v]; p != -1 {
			sibs := children[p]
			i := position[v]
			succ := [2]int{2 * i, 2*i + 1}
			if o.Unary {
				succ = [2]int{i + 1, len(sibs) + 1 /* absent */}
			}
			for _, j := range succ {
				if j <= len(sibs) {
					wr.WriteBool(true)
					wr.WriteBits(uint64(pm.PortTo(p, sibs[j-1])), w)
				} else {
					wr.WriteBool(false)
				}
			}
		} else {
			wr.WriteBool(false)
			wr.WriteBool(false)
		}
		bits[v] = wr.Bytes()
		lengths[v] = wr.Len()
	}
	return bits, lengths, nil
}

// cenUp is sent by a waking node to its parent: the parent relays wake-ups
// over the two carried ports (the sender's next siblings). Port values of
// 0 mean "absent".
type cenUp struct {
	NextA, NextB int
	W            int
}

// Bits implements sim.Message.
func (m cenUp) Bits() int { return tagBits + 2 + 2*m.W }

// cenDown is a plain wake-up along a tree edge (parent→child or the
// fc-edge).
type cenDown struct{}

// Bits implements sim.Message.
func (cenDown) Bits() int { return tagBits }

// CEN is the distributed algorithm of the Theorem 5(B) child-encoding
// scheme. It runs in the asynchronous KT0 CONGEST model.
type CEN struct{}

var _ sim.Algorithm = CEN{}

// Name implements sim.Algorithm.
func (CEN) Name() string { return "cen" }

// NewMachine implements sim.Algorithm.
func (CEN) NewMachine(info sim.NodeInfo) sim.Program {
	return &cenMachine{info: info}
}

type cenMachine struct {
	info sim.NodeInfo
}

func (m *cenMachine) OnWake(ctx sim.Context) {
	w := cenWidth(m.info.N)
	r := advice.NewReader(m.info.Advice, m.info.AdviceBits)
	parentPort := 0
	if r.ReadBool() {
		parentPort = int(r.ReadBits(w))
	}
	fcPort := 0
	if r.ReadBool() {
		fcPort = int(r.ReadBits(w))
	}
	nextA, nextB := 0, 0
	if r.ReadBool() {
		nextA = int(r.ReadBits(w))
	}
	if r.ReadBool() {
		nextB = int(r.ReadBits(w))
	}
	if err := r.Err(); err != nil {
		panic(fmt.Sprintf("core: node %d: malformed CEN advice: %v", m.info.ID, err))
	}
	if parentPort != 0 {
		// Wake the parent chain and hand it the next-sibling ports.
		ctx.Send(parentPort, cenUp{NextA: nextA, NextB: nextB, W: w})
	}
	if fcPort != 0 {
		// Start the dissemination among this node's own children.
		ctx.Send(fcPort, cenDown{})
	}
}

func (m *cenMachine) OnMessage(ctx sim.Context, d sim.Delivery) {
	up, ok := d.Msg.(cenUp)
	if !ok {
		return // cenDown: waking (handled by OnWake) is all it does
	}
	// Relay: wake the sender's next siblings over the carried ports, which
	// are ports at this node (the sender's parent).
	if up.NextA != 0 {
		ctx.Send(up.NextA, cenDown{})
	}
	if up.NextB != 0 {
		ctx.Send(up.NextB, cenDown{})
	}
}
