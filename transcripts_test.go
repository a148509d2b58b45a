package riseandshine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
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
			Graph:     g,
			Algorithm: c.alg,
			Schedule:  sched,
			Delays:    delays,
			Ports:     riseandshine.RandomPorts(g, seed),
			Seed:      seed,
			Observer:  riseandshine.NewDigestObserver(false),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintf("%016x", riseandshine.CombineDigests(res.TranscriptDigests)); got != c.want {
			t.Errorf("%s: digest %s, want %s", name, got, c.want)
		}
	}
}

// TestRunObserverStackPinned pins what a stacked observer sees through
// Run on both engines: trace, digest, metrics and causal observers in the
// order cmd/wakeup stacks them. Each value is what `wakeup -alg A -graph G
// -awake W -delays D -trace F -digest -metrics M -critical-path` writes at
// seed 1: the sha256 of the trace file and of the metrics file, the
// combined digest it prints, and the critical-path length.
func TestRunObserverStackPinned(t *testing.T) {
	const seed = 1
	for _, c := range []struct {
		alg, graph, awake, delays string
		trace, metrics, digest    string
		critical                  int
	}{
		// fast-wakeup runs on the synchronous engine, flood on the
		// asynchronous one.
		{"fast-wakeup", "connected:128:0.2", "all", "unit",
			"f6d8cd85edb907c34da81972539e91e9edeb742767ab24435698cc4498b8be04",
			"bccb93fdc7d66c43fceb0b9861c771d9b87ac27ec18306a103c662ee2f6b36e7",
			"d37ae7ef151a9654", 0},
		{"flood", "connected:200:0.05", "single", "random",
			"7cf26117027380410a711b285499431c66e0ce36d8b60abab0ba7bf34724c7fe",
			"e533a5ff2344557bdf696a8c35f9e32cb4a40adea27796558a6d6e245764c0dd",
			"bf4e89b57cd18b2a", 3},
	} {
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
		ports := riseandshine.RandomPorts(g, seed)
		var trace bytes.Buffer
		mobs := riseandshine.NewMetricsObserver(g.N())
		cobs := riseandshine.NewCausalObserver(g, ports)
		res, err := riseandshine.Run(riseandshine.RunConfig{
			Graph:     g,
			Algorithm: c.alg,
			Schedule:  sched,
			Delays:    delays,
			Ports:     ports,
			Seed:      seed,
			Observer: riseandshine.StackObservers(
				riseandshine.NewTraceObserver(&trace),
				riseandshine.NewDigestObserver(false),
				mobs, cobs),
		})
		if err != nil {
			t.Fatalf("%s: %v", c.alg, err)
		}
		record, err := json.Marshal(struct {
			Metrics  riseandshine.MetricsSnapshot `json:"metrics"`
			Frontier []riseandshine.FrontierPoint `json:"frontier"`
		}{mobs.Snapshot(), mobs.Frontier()})
		if err != nil {
			t.Fatal(err)
		}
		record = append(record, '\n')
		if got := fmt.Sprintf("%x", sha256.Sum256(trace.Bytes())); got != c.trace {
			t.Errorf("%s: trace sha256 %s, want %s", c.alg, got, c.trace)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(record)); got != c.metrics {
			t.Errorf("%s: metrics sha256 %s, want %s", c.alg, got, c.metrics)
		}
		if got := fmt.Sprintf("%016x", riseandshine.CombineDigests(res.TranscriptDigests)); got != c.digest {
			t.Errorf("%s: digest %s, want %s", c.alg, got, c.digest)
		}
		if got := cobs.Report().CriticalPathLength; got != c.critical {
			t.Errorf("%s: critical path %d, want %d", c.alg, got, c.critical)
		}
	}
}
