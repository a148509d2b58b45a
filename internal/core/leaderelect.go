package core

import (
	"fmt"
	"math"

	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// LeaderElect solves leader election under adversarial wake-up in the
// asynchronous KT1 LOCAL model, as an application of the Theorem 3
// machinery (§1.3 surveys exactly this line of work): adversary-woken
// nodes launch ranked DFS traversals; the traversal of the maximum
// (rank, ID) pair is never discarded and eventually returns to its origin
// with the whole component visited. The origin declares itself leader and
// announces along the DFS tree (which the token records as parent
// pointers), so every node learns the leader's ID.
//
// Complexity matches Theorem 3 plus one tree broadcast: O(n log n) time
// and messages w.h.p. Each node reports its decided leader through the
// Report callback, letting callers (and tests) verify agreement.
type LeaderElect struct {
	// RankBits is as in DFSRank.
	RankBits int
	// Report, when non-nil, is called once per node when it learns the
	// leader. A sequential run invokes it from one goroutine; a sharded
	// run (Config.Shards) calls it from several at once, so the callback
	// must then be safe for concurrent use.
	Report func(node, leader graph.NodeID)
}

var _ sim.Algorithm = LeaderElect{}

// Name implements sim.Algorithm.
func (LeaderElect) Name() string { return "leader-elect" }

// NewMachine implements sim.Algorithm.
func (a LeaderElect) NewMachine(info sim.NodeInfo) sim.Program {
	rb := a.RankBits
	if rb <= 0 {
		rb = 4 * info.LogN
	}
	if rb > 62 {
		rb = 62
	}
	return &leaderMachine{info: info, rankBits: rb, bestOrigin: math.MinInt64, report: a.Report}
}

// leaderToken extends the DFS token with parent pointers so that the
// completed traversal doubles as a broadcast tree.
//
// congest: exempt — LOCAL-model token; Bits() meters the carried ID lists.
type leaderToken struct {
	Rank    uint64
	Origin  graph.NodeID
	Visited []graph.NodeID // visit order; Visited[0] == Origin
	Parents []graph.NodeID // Parents[i] is the DFS parent of Visited[i] (-1 for the origin)
	Stack   []graph.NodeID
	idBits  int
	seen    idMap[struct{}] // indexes Visited, as in dfsToken
}

// Bits implements sim.Message.
func (t *leaderToken) Bits() int {
	return tagBits + 64 + (2*len(t.Visited)+len(t.Stack))*t.idBits
}

// GoString prints the token as %#v would without the seen index.
func (t *leaderToken) GoString() string {
	return fmt.Sprintf("&core.leaderToken{Rank:%#x, Origin:%d, Visited:%#v, Parents:%#v, Stack:%#v, idBits:%d}",
		t.Rank, t.Origin, t.Visited, t.Parents, t.Stack, t.idBits)
}

// leaderAnnounce carries the elected leader and the DFS tree downward.
//
// congest: exempt — LOCAL-model broadcast; Bits() meters the tree arrays.
type leaderAnnounce struct {
	Leader  graph.NodeID
	Visited []graph.NodeID
	Parents []graph.NodeID
	idBits  int
}

// Bits implements sim.Message.
func (m leaderAnnounce) Bits() int {
	return tagBits + (1+2*len(m.Visited))*m.idBits
}

type leaderMachine struct {
	info       sim.NodeInfo
	rankBits   int
	bestRank   uint64
	bestOrigin graph.NodeID
	leader     graph.NodeID
	decided    bool
	report     func(node, leader graph.NodeID)
}

func (m *leaderMachine) OnWake(ctx sim.Context) {
	if !ctx.AdversarialWake() {
		return
	}
	rank := ctx.Rand().Uint64() >> (64 - uint(m.rankBits))
	me := m.info.ID
	m.bestRank, m.bestOrigin = rank, me
	t := &leaderToken{
		Rank:    rank,
		Origin:  me,
		Visited: []graph.NodeID{me},
		Parents: []graph.NodeID{-1},
		Stack:   []graph.NodeID{me},
		idBits:  m.info.LogN + 1,
	}
	t.seen.put(me, struct{}{})
	m.advance(ctx, t)
}

func (m *leaderMachine) OnMessage(ctx sim.Context, d sim.Delivery) {
	switch msg := d.Msg.(type) {
	case *leaderToken:
		if rankLess(msg.Rank, msg.Origin, m.bestRank, m.bestOrigin) {
			return
		}
		m.bestRank, m.bestOrigin = msg.Rank, msg.Origin
		m.advance(ctx, msg)
	case leaderAnnounce:
		m.decide(ctx, msg)
	}
}

func (m *leaderMachine) advance(ctx sim.Context, t *leaderToken) {
	me := m.info.ID
	if next, ok := unvisitedMin(m.info.NeighborIDs, &t.seen); ok {
		t.Visited = append(t.Visited, next)
		t.seen.put(next, struct{}{})
		t.Parents = append(t.Parents, me)
		t.Stack = append(t.Stack, next)
		ctx.SendToID(next, t)
		return
	}
	t.Stack = t.Stack[:len(t.Stack)-1]
	if len(t.Stack) == 0 {
		// Traversal complete: this origin is the leader. Announce along
		// the recorded DFS tree.
		m.decide(ctx, leaderAnnounce{
			Leader:  me,
			Visited: t.Visited,
			Parents: t.Parents,
			idBits:  t.idBits,
		})
		return
	}
	ctx.SendToID(t.Stack[len(t.Stack)-1], t)
}

// decide records the leader and forwards the announcement to this node's
// DFS-tree children.
func (m *leaderMachine) decide(ctx sim.Context, a leaderAnnounce) {
	if m.decided {
		return
	}
	m.decided = true
	m.leader = a.Leader
	if m.report != nil {
		m.report(m.info.ID, a.Leader)
	}
	me := m.info.ID
	// Visited[0] is the leader, whose parent entry is only a placeholder.
	for i := 1; i < len(a.Visited); i++ {
		if a.Parents[i] == me {
			ctx.SendToID(a.Visited[i], a)
		}
	}
}
