package core

import (
	"fmt"
	"math"

	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// DFSRank implements the Theorem 3 algorithm for the asynchronous KT1
// LOCAL model: every adversary-woken node draws a random rank and launches
// a depth-first traversal via token passing. The token carries the rank,
// the origin's ID, the full list of visited IDs, and the current DFS path
// (for backtracking). A node forwards a token only if the token's
// (rank, origin) is at least the largest such pair it has seen, discarding
// dominated tokens. The traversal of the globally maximal pair is never
// discarded, so it wakes the whole network; the rank mechanism limits both
// the number of traversals crossing any node (O(log n) w.h.p.) and the
// adversary's ability to extend the execution by waking fresh nodes.
//
// With high probability the algorithm completes in O(n log n) time and
// O(n log n) messages.
type DFSRank struct {
	// RankBits is the width of the random rank in bits; 0 selects the
	// default 4·⌈log2 n⌉ (ranks from [n^c] for a constant c, §3.1).
	RankBits int
	// DisableRanks is an ablation switch: tokens are never discarded, so
	// every adversary-woken node's traversal runs to completion and the
	// message complexity degrades from Õ(n) to Θ(|A|·n) with |A| sources.
	// It isolates the contribution of the random-rank mechanism to
	// Theorem 3's bound.
	DisableRanks bool
}

var _ sim.Algorithm = DFSRank{}

// Name implements sim.Algorithm.
func (DFSRank) Name() string { return "dfs-rank" }

// NewMachine implements sim.Algorithm.
func (a DFSRank) NewMachine(info sim.NodeInfo) sim.Program {
	rb := a.RankBits
	if rb <= 0 {
		rb = 4 * info.LogN
	}
	if rb > 62 {
		rb = 62
	}
	return &dfsMachine{info: info, rankBits: rb, bestOrigin: math.MinInt64, noDiscard: a.DisableRanks}
}

// dfsToken is the traversal token. Ownership is handed off on send: the
// sender keeps no reference, so the slices and the index can be extended
// in place.
//
// congest: exempt — LOCAL-model token; Bits() meters the carried ID lists.
type dfsToken struct {
	Rank    uint64
	Origin  graph.NodeID
	Visited []graph.NodeID // IDs in visit order; Visited[0] == Origin
	Stack   []graph.NodeID // DFS path from origin to the current holder
	idBits  int
	// seen indexes Visited, so a hop tests its neighbors in O(deg)
	// instead of rebuilding a set of the whole list. It is simulator
	// state: Bits and GoString leave it out.
	seen idMap[struct{}]
}

// Bits implements sim.Message. The token is a LOCAL-model message: its
// size grows linearly with the visited prefix.
func (t *dfsToken) Bits() int {
	return tagBits + 64 + (len(t.Visited)+len(t.Stack))*t.idBits
}

// GoString prints the token as %#v would without the seen index, so
// transcript digests and traces hash only what the message carries.
func (t *dfsToken) GoString() string {
	return fmt.Sprintf("&core.dfsToken{Rank:%#x, Origin:%d, Visited:%#v, Stack:%#v, idBits:%d}",
		t.Rank, t.Origin, t.Visited, t.Stack, t.idBits)
}

// dfsMachine is the per-node state: only the lexicographic maximum
// (rank, origin) pair observed so far.
type dfsMachine struct {
	info       sim.NodeInfo
	rankBits   int
	bestRank   uint64
	bestOrigin graph.NodeID // math.MinInt64 until any token is seen
	noDiscard  bool
}

// less compares (r1,o1) < (r2,o2) lexicographically.
func rankLess(r1 uint64, o1 graph.NodeID, r2 uint64, o2 graph.NodeID) bool {
	if r1 != r2 {
		return r1 < r2
	}
	return o1 < o2
}

func (m *dfsMachine) OnWake(ctx sim.Context) {
	if !ctx.AdversarialWake() {
		// Nodes woken by a message neither initiate a traversal nor draw
		// a rank (§3.1).
		return
	}
	rank := ctx.Rand().Uint64() >> (64 - uint(m.rankBits))
	me := m.info.ID
	m.bestRank, m.bestOrigin = rank, me
	t := &dfsToken{
		Rank:    rank,
		Origin:  me,
		Visited: []graph.NodeID{me},
		Stack:   []graph.NodeID{me},
		idBits:  m.info.LogN + 1,
	}
	t.seen.put(me, struct{}{})
	m.advance(ctx, t)
}

func (m *dfsMachine) OnMessage(ctx sim.Context, d sim.Delivery) {
	t, ok := d.Msg.(*dfsToken)
	if !ok {
		return
	}
	if !m.noDiscard && rankLess(t.Rank, t.Origin, m.bestRank, m.bestOrigin) {
		return // dominated token: discard (§3.1 case (b))
	}
	m.bestRank, m.bestOrigin = t.Rank, t.Origin
	m.advance(ctx, t)
}

// advance continues the traversal from this node, which is the top of the
// token's DFS stack: move to the smallest-ID unvisited neighbor if one
// exists, otherwise backtrack toward the origin.
func (m *dfsMachine) advance(ctx sim.Context, t *dfsToken) {
	if next, ok := unvisitedMin(m.info.NeighborIDs, &t.seen); ok {
		t.Visited = append(t.Visited, next)
		t.seen.put(next, struct{}{})
		t.Stack = append(t.Stack, next)
		ctx.SendToID(next, t)
		return
	}
	// Backtrack: pop this node; if the stack empties, the traversal is
	// complete and the token is retired.
	t.Stack = t.Stack[:len(t.Stack)-1]
	if len(t.Stack) == 0 {
		return
	}
	ctx.SendToID(t.Stack[len(t.Stack)-1], t)
}

// unvisitedMin returns the smallest ID among ids that is not in seen, and
// false if every one is.
func unvisitedMin(ids []graph.NodeID, seen *idMap[struct{}]) (next graph.NodeID, ok bool) {
	for _, id := range ids {
		if (!ok || id < next) && !seen.has(id) {
			next, ok = id, true
		}
	}
	return next, ok
}
