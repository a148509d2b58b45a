package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// tokenIndexObserver checks, at every delivery of a DFS token, that the
// token's seen index holds exactly the IDs in Visited.
type tokenIndexObserver struct {
	t      *testing.T
	tokens int
}

func (o *tokenIndexObserver) OnWake(sim.Time, int, bool)             {}
func (o *tokenIndexObserver) OnSend(sim.Time, int, int, sim.Message) {}
func (o *tokenIndexObserver) OnFinish(*sim.Result) error             { return nil }

func (o *tokenIndexObserver) OnDeliver(at sim.Time, node int, d sim.Delivery) {
	switch tok := d.Msg.(type) {
	case *dfsToken:
		o.check(at, node, tok.Visited, tok.seen)
	case *leaderToken:
		o.check(at, node, tok.Visited, tok.seen)
	}
}

func (o *tokenIndexObserver) check(at sim.Time, node int, visited []graph.NodeID, seen map[graph.NodeID]struct{}) {
	o.t.Helper()
	o.tokens++
	keys := make([]graph.NodeID, 0, len(seen))
	for id := range seen {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	want := slices.Clone(visited)
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		o.t.Fatalf("t=%v node %d: seen index %v, Visited %v", at, node, keys, visited)
	}
}

// TestTokenIndexMatchesVisited runs both token algorithms with the index
// checked at every delivery: staggered wakes, every node awake, and the
// rank-free ablation where every traversal runs to completion.
func TestTokenIndexMatchesVisited(t *testing.T) {
	g := graph.RandomConnected(120, 0.05, rand.New(rand.NewSource(5)))
	setup, err := sim.NewSetup(g, nil, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	schedules := []struct {
		name  string
		sched sim.WakeScheduler
	}{
		{"staggered", sim.StaggeredWake{Sizes: []int{1, 2, 4, 8}, Gap: 3, Seed: 6}},
		{"all", sim.WakeAll{}},
	}
	algs := []struct {
		name string
		alg  sim.Algorithm
	}{
		{"dfs-rank", DFSRank{}},
		{"dfs-rank-unranked", DFSRank{DisableRanks: true}},
		{"leader-elect", LeaderElect{}},
	}
	for _, s := range schedules {
		for _, a := range algs {
			t.Run(s.name+"/"+a.name, func(t *testing.T) {
				obs := &tokenIndexObserver{t: t}
				res, err := sim.RunAsync(sim.Config{
					Setup:    setup,
					Schedule: s.sched,
					Delays:   sim.RandomDelay{Seed: 7},
					Seed:     8,
					Observer: obs,
				}, a.alg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.AllAwake {
					t.Fatal("not all awake")
				}
				if obs.tokens < g.N()-1 {
					t.Fatalf("checked %d token deliveries, want at least n-1 = %d", obs.tokens, g.N()-1)
				}
			})
		}
	}
}

// TestTokenDigestForm pins the %#v form that transcript digests and traces
// hash: the token's carried fields in declaration order, without the seen
// index, exactly as before the index existed.
func TestTokenDigestForm(t *testing.T) {
	ids := func(v ...graph.NodeID) []graph.NodeID { return v }
	cases := []struct {
		tok  sim.Message
		want string
	}{
		{
			&dfsToken{Rank: 0, Origin: 0, Visited: ids(0), idBits: 1, seen: map[graph.NodeID]struct{}{0: {}}},
			"&core.dfsToken{Rank:0x0, Origin:0, Visited:[]graph.NodeID{0}, Stack:[]graph.NodeID(nil), idBits:1}",
		},
		{
			&dfsToken{Rank: 1<<61 - 1, Origin: 4095, Visited: ids(4095, 17, 3), Stack: ids(4095, 17, 3), idBits: 13},
			"&core.dfsToken{Rank:0x1fffffffffffffff, Origin:4095, Visited:[]graph.NodeID{4095, 17, 3}, Stack:[]graph.NodeID{4095, 17, 3}, idBits:13}",
		},
		{
			&dfsToken{Rank: 0x1a2b3c, Origin: 9, Visited: ids(9, 8), Stack: []graph.NodeID{}, idBits: 5},
			"&core.dfsToken{Rank:0x1a2b3c, Origin:9, Visited:[]graph.NodeID{9, 8}, Stack:[]graph.NodeID{}, idBits:5}",
		},
		{
			&leaderToken{Rank: 0, Origin: 5, Visited: ids(5), Parents: ids(-1), idBits: 4, seen: map[graph.NodeID]struct{}{5: {}}},
			"&core.leaderToken{Rank:0x0, Origin:5, Visited:[]graph.NodeID{5}, Parents:[]graph.NodeID{-1}, Stack:[]graph.NodeID(nil), idBits:4}",
		},
		{
			&leaderToken{Rank: 1 << 60, Origin: 2, Visited: ids(2, 0, 7), Parents: ids(-1, 2, 0), Stack: ids(2, 0, 7), idBits: 12},
			"&core.leaderToken{Rank:0x1000000000000000, Origin:2, Visited:[]graph.NodeID{2, 0, 7}, Parents:[]graph.NodeID{-1, 2, 0}, Stack:[]graph.NodeID{2, 0, 7}, idBits:12}",
		},
	}
	for _, c := range cases {
		if got := fmt.Sprintf("%#v", c.tok); got != c.want {
			t.Errorf("%%#v = %s\nwant  %s", got, c.want)
		}
	}
}
