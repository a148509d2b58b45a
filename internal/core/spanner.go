package core

import (
	"fmt"
	"slices"

	"riseandshine/internal/advice"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// SpannerOracle implements the Theorem 6 advising scheme: the oracle
// computes a greedy (2k−1)-spanner S of the network (O(n^{1+1/k}) edges)
// and encodes each node's incident spanner edges so that flooding can be
// confined to S. A node reaching all its spanner neighbors then costs an
// O(log n) time factor, and the stretch costs a factor 2k−1 ≤ 2k, giving
// O(k·ρ_awk·log n) time, Õ(n^{1+1/k}) messages, and O(n^{1/k}·log² n)
// maximum advice.
//
// The brief announcement defers the scheme's details to the full version;
// the construction here achieves the stated bounds as follows. The
// spanner's girth exceeds 2k, so its degeneracy is O(n^{1/k}): orienting
// every edge along a smallest-last elimination order gives each node v
//
//   - its out-ports, stored directly (≤ degeneracy of S ports), and
//   - an in-neighbor list in(v) that may be huge, which is therefore
//     child-encoded across the in-neighbors themselves: in(v) is arranged
//     as a binary heap, v stores only the port to its head, and each
//     in-neighbor x stores — keyed by x's own port for the edge x→v — the
//     pair of ports at v leading to x's heap successors.
//
// On waking, v wakes its out-neighbors directly and starts a binary
// dissemination over in(v): each contacted in-neighbor returns its
// next-pair, which v relays as two further wake-ups. Every node stores
// O(n^{1/k}) port numbers and entries, i.e. O(n^{1/k} log n) bits, and
// every spanner edge carries O(1) messages.
type SpannerOracle struct {
	// K is the stretch parameter; the spanner has stretch 2K−1. Use
	// Corollary2K(n) for the Corollary 2 instantiation.
	K int
}

var _ advice.Oracle = SpannerOracle{}

// Name implements advice.Oracle.
func (o SpannerOracle) Name() string { return fmt.Sprintf("spanner-cen(k=%d)", o.K) }

// Corollary2K returns k = ⌈log2 n⌉, the Corollary 2 instantiation under
// which the spanner degenerates to O(n) edges and the scheme achieves
// O(ρ_awk·log² n) time, O(n·log² n) messages, and O(log² n) advice.
func Corollary2K(n int) int {
	k := advice.BitsFor(n - 1)
	if k < 1 {
		k = 1
	}
	return k
}

// spannerWidth is the fixed port width in spanner advice.
func spannerWidth(n int) int { return advice.BitsFor(n) + 1 }

// Advise implements advice.Oracle.
func (o SpannerOracle) Advise(g *graph.Graph, pm *graph.PortMap) ([][]byte, []int, error) {
	if o.K < 1 {
		return nil, nil, fmt.Errorf("core: spanner parameter k must be >= 1, got %d", o.K)
	}
	if !g.Connected() {
		return nil, nil, graph.ErrDisconnected
	}
	s, err := graph.GreedySpanner(g, o.K)
	if err != nil {
		return nil, nil, err
	}
	order, _ := graph.DegeneracyOrder(s)
	out := graph.OrientByOrder(s, order)

	n := g.N()
	// inList[v]: in-neighbors of v in deterministic (ascending index)
	// order; this is the heap order of v's dissemination tree.
	inList := make([][]int, n)
	for x := 0; x < n; x++ {
		for _, v := range out[x] {
			inList[v] = append(inList[v], x)
		}
	}
	for v := range inList {
		slices.Sort(inList[v])
	}
	// posIn[x][v] would be x's heap position in inList[v]; compute next
	// pairs directly instead: for inList[v][i-1] (1-based i), successors
	// are inList[v][2i-1] and inList[v][2i] when present.
	type pair struct{ a, b int }      // ports at v; 0 = absent
	nextAt := make([]map[int]pair, n) // nextAt[x][port of x to v] = pair
	for v := 0; v < n; v++ {
		l := inList[v]
		for i := 1; i <= len(l); i++ {
			x := l[i-1]
			var p pair
			if 2*i <= len(l) {
				p.a = pm.PortTo(v, l[2*i-1])
			}
			if 2*i+1 <= len(l) {
				p.b = pm.PortTo(v, l[2*i])
			}
			if nextAt[x] == nil {
				nextAt[x] = make(map[int]pair)
			}
			nextAt[x][pm.PortTo(x, v)] = p
		}
	}

	w := spannerWidth(n)
	bits := make([][]byte, n)
	lengths := make([]int, n)
	for v := 0; v < n; v++ {
		var wr advice.Writer
		// Out-ports, stored directly.
		wr.WriteBits(uint64(len(out[v])), w)
		for _, y := range out[v] {
			wr.WriteBits(uint64(pm.PortTo(v, int(y))), w)
		}
		// Head of the in-neighbor dissemination heap.
		if len(inList[v]) > 0 {
			wr.WriteBool(true)
			wr.WriteBits(uint64(pm.PortTo(v, inList[v][0])), w)
		} else {
			wr.WriteBool(false)
		}
		// Next-pair entries, keyed by this node's own port.
		entries := nextAt[v]
		keys := make([]int, 0, len(entries))
		for k := range entries {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		wr.WriteBits(uint64(len(keys)), w)
		for _, k := range keys {
			p := entries[k]
			wr.WriteBits(uint64(k), w)
			if p.a != 0 {
				wr.WriteBool(true)
				wr.WriteBits(uint64(p.a), w)
			} else {
				wr.WriteBool(false)
			}
			if p.b != 0 {
				wr.WriteBool(true)
				wr.WriteBits(uint64(p.b), w)
			} else {
				wr.WriteBool(false)
			}
		}
		bits[v] = wr.Bytes()
		lengths[v] = wr.Len()
	}
	return bits, lengths, nil
}

// spanWake is a plain wake-up along a spanner edge.
type spanWake struct{}

// Bits implements sim.Message.
func (spanWake) Bits() int { return tagBits }

// spanNext is an in-neighbor's reply carrying the next two dissemination
// ports (which are ports at the receiver). Zero means absent.
type spanNext struct {
	A, B int
	W    int
}

// Bits implements sim.Message.
func (m spanNext) Bits() int { return tagBits + 2 + 2*m.W }

// SpannerScheme is the distributed algorithm of the Theorem 6 /
// Corollary 2 scheme. It runs in the asynchronous KT0 CONGEST model.
type SpannerScheme struct{}

var _ sim.Algorithm = SpannerScheme{}

// Name implements sim.Algorithm.
func (SpannerScheme) Name() string { return "spanner-cen" }

// NewMachine implements sim.Algorithm.
func (SpannerScheme) NewMachine(info sim.NodeInfo) sim.Program {
	m := &spannerMachine{info: info}
	m.decode()
	return m
}

type spannerMachine struct {
	info     sim.NodeInfo
	outPorts []int
	headPort int            // 0 = no in-neighbors
	next     map[int][2]int // own port -> next-pair (ports at the out-neighbor)
}

func (m *spannerMachine) decode() {
	w := spannerWidth(m.info.N)
	r := advice.NewReader(m.info.Advice, m.info.AdviceBits)
	outCount := int(r.ReadBits(w))
	m.outPorts = make([]int, 0, outCount)
	for i := 0; i < outCount; i++ {
		m.outPorts = append(m.outPorts, int(r.ReadBits(w)))
	}
	if r.ReadBool() {
		m.headPort = int(r.ReadBits(w))
	}
	entryCount := int(r.ReadBits(w))
	m.next = make(map[int][2]int, entryCount)
	for i := 0; i < entryCount; i++ {
		key := int(r.ReadBits(w))
		var p [2]int
		if r.ReadBool() {
			p[0] = int(r.ReadBits(w))
		}
		if r.ReadBool() {
			p[1] = int(r.ReadBits(w))
		}
		m.next[key] = p
	}
	if err := r.Err(); err != nil {
		panic(fmt.Sprintf("core: node %d: malformed spanner advice: %v", m.info.ID, err))
	}
}

func (m *spannerMachine) OnWake(ctx sim.Context) {
	w := spannerWidth(m.info.N)
	for _, p := range m.outPorts {
		// Wake the out-neighbor and hand it our continuation of its
		// in-list dissemination. Sending eagerly on every wake-up (rather
		// than on request) keeps the protocol at O(1) messages per
		// spanner edge: each out-edge carries exactly one spanNext.
		ctx.Send(p, spanWake{})
		if pair, ok := m.next[p]; ok && (pair[0] != 0 || pair[1] != 0) {
			ctx.Send(p, spanNext{A: pair[0], B: pair[1], W: w})
		}
	}
	if m.headPort != 0 {
		ctx.Send(m.headPort, spanWake{})
	}
}

func (m *spannerMachine) OnMessage(ctx sim.Context, d sim.Delivery) {
	// spanWake only wakes (handled by OnWake). A spanNext carries the next
	// two ports of this node's in-list heap: relay wake-ups over them.
	if msg, ok := d.Msg.(spanNext); ok {
		if msg.A != 0 {
			ctx.Send(msg.A, spanWake{})
		}
		if msg.B != 0 {
			ctx.Send(msg.B, spanWake{})
		}
	}
}
