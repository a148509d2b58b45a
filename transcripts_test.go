package riseandshine_test

import (
	"fmt"
	"testing"

	"riseandshine"
	"riseandshine/internal/experiment"
)

// TestHandlerTranscriptsFrozen pins the combined transcript digests of the
// LOCAL handlers that keep per-hop state beside their messages: the
// ranked-DFS tokens' seen index (left out of their %#v form) and
// fast-wakeup's root tree. Each value is what `wakeup -alg A -graph G
// -awake W -delays D -digest` prints at seed 1, so a change to what a
// handler sends, or to how a token prints, moves it.
func TestHandlerTranscriptsFrozen(t *testing.T) {
	const seed = 1
	for _, c := range []struct{ alg, graph, awake, delays, want string }{
		{"dfs-rank", "connected:400:0.03", "random:8", "random", "d3d4ae5eded0ff59"},
		{"dfs-rank", "connected:400:0.03", "all", "random", "94256658fc93fcb3"},
		{"leader-elect", "connected:400:0.03", "random:8", "random", "71f3d2cb8f388f81"},
		{"fast-wakeup", "connected:300:0.2", "all", "unit", "5b1a41ad520cb2ae"},
		{"fast-wakeup", "connected:300:0.05", "random:20", "unit", "6993d64293598727"},
	} {
		name := fmt.Sprintf("%s/%s/%s", c.alg, c.graph, c.awake)
		g, err := experiment.ParseGraph(c.graph, seed)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := experiment.ParseSchedule(c.awake, seed)
		if err != nil {
			t.Fatal(err)
		}
		delays, err := experiment.ParseDelays(c.delays, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := riseandshine.Run(riseandshine.RunConfig{
			Graph:         g,
			Algorithm:     c.alg,
			Schedule:      sched,
			Delays:        delays,
			Ports:         riseandshine.RandomPorts(g, seed),
			Seed:          seed,
			RecordDigests: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintf("%016x", riseandshine.CombineDigests(res.TranscriptDigests)); got != c.want {
			t.Errorf("%s: digest %s, want %s", name, got, c.want)
		}
	}
}
