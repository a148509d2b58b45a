package riseandshine_test

import (
	"strings"
	"testing"

	"riseandshine"
)

func TestAlgorithmsRegistryComplete(t *testing.T) {
	names := riseandshine.Algorithms()
	want := []string{"cen", "counting-wake", "dfs-congest", "dfs-rank", "echo-flood", "fast-wakeup", "fip06", "flood", "leader-elect", "push-gossip", "spanner", "threshold"}
	if len(names) != len(want) {
		t.Fatalf("registry = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registry = %v, want %v", names, want)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := riseandshine.Lookup("does-not-exist")
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("err = %v", err)
	}
}

func TestLookupMetadata(t *testing.T) {
	info, err := riseandshine.Lookup("fast-wakeup")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Synchronous {
		t.Error("fast-wakeup should be synchronous")
	}
	if info.UsesAdvice {
		t.Error("fast-wakeup uses no advice")
	}
	cen, err := riseandshine.Lookup("cen")
	if err != nil {
		t.Fatal(err)
	}
	if !cen.UsesAdvice || cen.Synchronous {
		t.Error("cen is an asynchronous advising scheme")
	}
	if cen.Model.Knowledge != riseandshine.KT0 {
		t.Error("cen runs under KT0")
	}
}

func TestRunDefaultsWakeNodeZero(t *testing.T) {
	g := riseandshine.Path(10)
	res, err := riseandshine.Run(riseandshine.RunConfig{
		Graph:     g,
		Algorithm: "flood",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Error("not all awake")
	}
	if set := res.AwakeSet(); len(set) != 1 || set[0] != 0 {
		t.Errorf("awake set = %v", set)
	}
}

func TestRunEveryRegisteredAlgorithm(t *testing.T) {
	g := riseandshine.RandomConnected(80, 0.06, 3)
	for _, name := range riseandshine.Algorithms() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := riseandshine.Run(riseandshine.RunConfig{
				Graph:     g,
				Algorithm: name,
				Schedule:  riseandshine.RandomWake{Count: 3, Seed: 5},
				Delays:    riseandshine.RandomDelay{Seed: 7},
				Ports:     riseandshine.RandomPorts(g, 9),
				Seed:      1,
				Options:   riseandshine.Options{GossipRounds: 2000},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllAwake {
				t.Fatalf("only %d/%d awake", res.AwakeCount, res.N)
			}
			if res.Algorithm == "" {
				t.Error("result missing algorithm name")
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := riseandshine.Run(riseandshine.RunConfig{Algorithm: "flood"}); err == nil {
		t.Error("expected missing-graph error")
	}
	if _, err := riseandshine.Run(riseandshine.RunConfig{
		Graph:     riseandshine.Path(3),
		Algorithm: "bogus",
	}); err == nil {
		t.Error("expected unknown-algorithm error")
	}
}

func TestRunModelOverride(t *testing.T) {
	g := riseandshine.Path(5)
	// Flood defaults to KT0 CONGEST; override to KT1 LOCAL.
	res, err := riseandshine.Run(riseandshine.RunConfig{
		Graph:     g,
		Algorithm: "flood",
		Model:     riseandshine.Model{Knowledge: riseandshine.KT1, Bandwidth: riseandshine.Local},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Error("not all awake")
	}
}

func TestGraphConstructorsExported(t *testing.T) {
	if riseandshine.Grid(3, 3).N() != 9 {
		t.Error("Grid broken")
	}
	if riseandshine.Hypercube(3).M() != 12 {
		t.Error("Hypercube broken")
	}
	if g := riseandshine.RandomTree(20, 1); g.M() != 19 || !g.Connected() {
		t.Error("RandomTree broken")
	}
	if g := riseandshine.RandomGNP(20, 0.5, 1); g.N() != 20 {
		t.Error("RandomGNP broken")
	}
	b := riseandshine.NewGraphBuilder(2)
	b.AddEdge(0, 1)
	if g, err := b.Build(); err != nil || g.M() != 1 {
		t.Error("GraphBuilder broken")
	}
}

func TestSpannerOptionsK(t *testing.T) {
	g := riseandshine.RandomConnected(100, 0.2, 2)
	for _, k := range []int{0, 2, 3} {
		res, err := riseandshine.Run(riseandshine.RunConfig{
			Graph:     g,
			Algorithm: "spanner",
			Options:   riseandshine.Options{K: k},
			Ports:     riseandshine.RandomPorts(g, 3),
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.AllAwake {
			t.Fatalf("k=%d: not all awake", k)
		}
	}
}
