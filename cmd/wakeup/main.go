// Command wakeup runs one wake-up algorithm on one network and prints the
// execution metrics.
//
// Usage:
//
//	wakeup -graph grid:16x16 -alg cen -awake single -seed 1
//	wakeup -graph connected:500:0.01 -alg dfs-rank -awake staggered:1,2,4,8:100 -delays random
//	wakeup -graph complete:200 -alg fast-wakeup -awake dominating
//
// Run with -list to enumerate algorithms, and -h for all flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"riseandshine"
	"riseandshine/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wakeup:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphSpec = flag.String("graph", "grid:16x16", "graph spec (see internal/experiment.ParseGraph)")
		algName   = flag.String("alg", "flood", "algorithm name (see -list)")
		awake     = flag.String("awake", "single", "wake schedule: single[:v] | all | dominating | random:k[:window] | staggered:s1,s2,..:gap")
		delays    = flag.String("delays", "unit", "delay adversary: unit | random | random:MIN (delays in (MIN, 1])")
		seed      = flag.Int64("seed", 1, "random seed")
		shards    = flag.Int("shards", 0, "partition the run across this many cores (byte-identical results; needs a positive-lookahead delay adversary, e.g. unit or random:MIN)")
		k         = flag.Int("k", 0, "spanner stretch parameter (spanner scheme; 0 = Corollary 2)")
		randPorts = flag.Bool("randports", true, "use adversarial random port mappings")
		list      = flag.Bool("list", false, "list registered algorithms and exit")
		dotPath   = flag.String("dot", "", "write the network (awake set highlighted) as Graphviz DOT to this path")
		curvePath = flag.String("wakecurve", "", "write the per-node wake times as CSV to this path")
		tracePath = flag.String("trace", "", "write the full event trace as CSV to this path")
		digest    = flag.Bool("digest", false, "record per-node transcript digests and print the run's combined FNV-64a digest")
		metrics   = flag.String("metrics", "", "write the run's metrics (deterministic JSON: snapshot + frontier) to this path, '-' for stdout, and print a quantile summary")
		critical  = flag.Bool("critical-path", false, "trace the causal DAG and print the critical path (longest causal chain ending at the last wake)")
		exectrace = flag.String("exectrace", "", "record the run's execution timeline, write it as Chrome trace-event JSON (Perfetto-loadable) to this path, and print the stall report")
	)
	flag.Parse()

	if *list {
		for _, name := range riseandshine.Algorithms() {
			info, _ := riseandshine.Lookup(name)
			engine := "async"
			if info.Synchronous {
				engine = "sync"
			}
			fmt.Printf("%-12s %-6s %-11s %-40s %s\n", name, engine, info.Model, info.Paper, info.Description)
		}
		return nil
	}

	g, err := experiment.ParseGraph(*graphSpec, *seed)
	if err != nil {
		return err
	}
	schedule, err := experiment.ParseSchedule(*awake, *seed)
	if err != nil {
		return err
	}
	delayer, err := experiment.ParseDelays(*delays, *seed)
	if err != nil {
		return err
	}
	var ports *riseandshine.PortMap
	if *randPorts {
		ports = riseandshine.RandomPorts(g, *seed)
	}

	cfg := riseandshine.RunConfig{
		Graph:     g,
		Algorithm: *algName,
		Options:   riseandshine.Options{K: *k},
		Schedule:  schedule,
		Delays:    delayer,
		Ports:     ports,
		Seed:      *seed,
		Shards:    *shards,
	}
	var observers []riseandshine.Observer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		observers = append(observers, riseandshine.NewTraceObserver(f))
	}
	if *digest {
		observers = append(observers, riseandshine.NewDigestObserver(false))
	}
	var mobs *riseandshine.MetricsObserver
	if *metrics != "" {
		mobs = riseandshine.NewMetricsObserver(g.N())
		observers = append(observers, mobs)
	}
	var cobs *riseandshine.CausalObserver
	if *critical {
		cobs = riseandshine.NewCausalObserver(g, ports)
		observers = append(observers, cobs)
	}
	cfg.Observer = riseandshine.StackObservers(observers...)
	var rec *riseandshine.ExecRecorder
	if *exectrace != "" {
		rec = riseandshine.NewExecRecorder(riseandshine.ExecTimeClock())
		cfg.ExecTrace = rec
	}
	res, err := riseandshine.Run(cfg)
	if err != nil {
		return err
	}
	if *tracePath != "" {
		fmt.Printf("trace      wrote %s\n", *tracePath)
	}
	if *digest {
		fmt.Printf("digest     %016x over %d node transcripts\n", riseandshine.CombineDigests(res.TranscriptDigests), len(res.TranscriptDigests))
	}

	diam, derr := g.Diameter()
	fmt.Printf("graph      %s: n=%d m=%d", *graphSpec, g.N(), g.M())
	if derr == nil {
		fmt.Printf(" D=%d", diam)
	}
	fmt.Println()
	fmt.Printf("result     %s\n", res)
	fmt.Printf("wake span  %.2f time units (all awake: %v)\n", float64(res.WakeSpan), res.AllAwake)
	if res.AdviceMaxBits > 0 {
		fmt.Printf("advice     max %d bits, avg %.1f bits/node\n", res.AdviceMaxBits, res.AdviceAvgBits())
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		if err := riseandshine.WriteGraphDOT(f, g, res.AwakeSet()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("dot        wrote %s\n", *dotPath)
	}
	if *curvePath != "" {
		if err := writeWakeCurve(*curvePath, res); err != nil {
			return err
		}
		fmt.Printf("wakecurve  wrote %s\n", *curvePath)
	}
	if mobs != nil {
		if err := reportMetrics(*metrics, mobs); err != nil {
			return err
		}
	}
	if cobs != nil {
		printCriticalPath(cobs.Report())
	}
	if rec != nil {
		if err := writeExecTrace(*exectrace, rec); err != nil {
			return err
		}
	}
	if !res.AllAwake {
		return fmt.Errorf("%d of %d nodes never woke up", res.N-res.AwakeCount, res.N)
	}
	return nil
}

// reportMetrics writes the run's deterministic metrics record (snapshot
// plus frontier time series, one JSON line) and prints a quantile summary
// of the recorded distributions.
func reportMetrics(path string, mobs *riseandshine.MetricsObserver) error {
	snap := mobs.Snapshot()
	record := struct {
		Metrics  riseandshine.MetricsSnapshot `json:"metrics"`
		Frontier []riseandshine.FrontierPoint `json:"frontier"`
	}{snap, mobs.Frontier()}
	data, err := json.Marshal(record)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("metrics    wrote %s\n", path)
	}
	for _, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		fmt.Printf("metrics    %-18s n=%-7d p50=%-9.4g p90=%-9.4g p99=%.4g\n",
			h.Name, h.Count, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
	}
	return nil
}

// writeExecTrace writes the recorded timeline as Chrome trace-event JSON
// and prints the aggregate stall report, one "exectrace" line per track.
func writeExecTrace(path string, rec *riseandshine.ExecRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("exectrace  wrote %s (load in https://ui.perfetto.dev)\n", path)
	for _, line := range strings.Split(strings.TrimRight(rec.Stall().String(), "\n"), "\n") {
		fmt.Printf("exectrace  %s\n", line)
	}
	return nil
}

// printCriticalPath renders the causal tracer's report: the longest causal
// chain of messages ending at the last wake-up.
func printCriticalPath(rep riseandshine.CausalReport) {
	fmt.Printf("causal     critical path %d hops to node %d (woke at %.2f); max causal depth %d\n",
		rep.CriticalPathLength, rep.LastWakeNode, float64(rep.LastWakeAt), rep.MaxDepth)
	for _, step := range rep.Path {
		kind := "deliver"
		if step.Depth == 0 {
			kind = "origin"
		}
		fmt.Printf("causal     %3d  %-7s node %-6d t=%.2f\n", step.Depth, kind, step.Node, float64(step.At))
	}
}

// writeWakeCurve dumps (node, wake time, adversary-woken) rows — the raw
// data behind a "fraction awake over time" plot.
func writeWakeCurve(path string, res *riseandshine.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "node,wake_time,adversary_woken"); err != nil {
		return err
	}
	for v, at := range res.WakeAt {
		adv := false
		if res.AdversaryWoken != nil {
			adv = res.AdversaryWoken[v]
		}
		if _, err := fmt.Fprintf(f, "%d,%g,%v\n", v, float64(at), adv); err != nil {
			return err
		}
	}
	return nil
}
