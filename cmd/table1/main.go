// Command table1 regenerates the paper's Table 1 empirically: for every
// algorithm row it sweeps the network size, measures time, messages, and
// advice lengths, and reports the measured growth against the bound the
// paper states. Lower-bound rows (Theorems 1 and 2) are produced by
// cmd/lowerbound.
//
// Absolute constants are implementation-specific; the reproduction targets
// the growth shapes — see EXPERIMENTS.md for the recorded outcomes.
//
// Each row's (size × seed) matrix fans out over a bounded worker pool
// (-workers, default NumCPU); per-run seeds derive from (master seed, run
// index), so the output is byte-identical for any worker count.
//
// Cell i of a row runs on the graph its spec parses to with seed
// sim.RunSeed(master, i). Five rows share the connected:%d:0.01 specs and
// sizes, so the command builds each (spec, seed) graph once and hands the
// rows the same instance: graphs are immutable and safe to share between
// workers, and a graph keeps its diameter, so the D column computes each
// one once.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"riseandshine/internal/experiment"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
	"riseandshine/internal/stats"
)

type rowSpec struct {
	name      string // registry algorithm
	paper     string // paper row
	graph     string // graph family spec with %d for n
	schedule  string
	delays    string
	k         int
	timeModel stats.Model
	msgModel  stats.Model
	advModel  stats.Model // max advice, Const when the row has none
	sizes     []int
}

func main() {
	var (
		seeds   = flag.Int("seeds", 3, "number of seeds per configuration")
		seed    = flag.Int64("seed", 1, "master seed; run i derives its seed from (seed, i)")
		workers = flag.Int("workers", 0, "parallel workers (0 = NumCPU)")
		quick   = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	)
	flag.Parse()

	sparse := []int{256, 512, 1024, 2048}
	dense := []int{128, 256, 512}
	if *quick {
		sparse = []int{128, 256, 512}
		dense = []int{64, 128, 256}
	}

	rows := []rowSpec{
		{
			name: "dfs-rank", paper: "Theorem 3",
			graph: "connected:%d:0.01", schedule: "staggered:1,2,4,8:64", delays: "random",
			timeModel: stats.NLogN, msgModel: stats.NLogN, advModel: stats.Const,
			sizes: sparse,
		},
		{
			name: "fast-wakeup", paper: "Theorem 4",
			graph: "connected:%d:0.2", schedule: "all", delays: "unit",
			timeModel: stats.Const, msgModel: stats.N32SqrtLg, advModel: stats.Const,
			sizes: dense,
		},
		{
			name: "fip06", paper: "[FIP06], Cor. 1",
			graph: "connected:%d:0.01", schedule: "single", delays: "random",
			timeModel: stats.Model{Name: "D", F: nil}, msgModel: stats.Linear, advModel: stats.Linear,
			sizes: sparse,
		},
		{
			name: "threshold", paper: "Theorem 5(A)",
			graph: "connected:%d:0.01", schedule: "single", delays: "random",
			timeModel: stats.Model{Name: "D", F: nil}, msgModel: stats.N32, advModel: stats.SqrtNLogN,
			sizes: sparse,
		},
		{
			name: "cen", paper: "Theorem 5(B)",
			graph: "connected:%d:0.01", schedule: "single", delays: "random",
			timeModel: stats.Model{Name: "D·log n", F: nil}, msgModel: stats.Linear, advModel: stats.LogN,
			sizes: sparse,
		},
		{
			name: "spanner", paper: "Theorem 6 (k=2)", k: 2,
			graph: "connected:%d:0.05", schedule: "random:4", delays: "random",
			timeModel: stats.Model{Name: "k·ρ·log n", F: nil}, msgModel: stats.PowerLog(1.5, 0), advModel: stats.PowerLog(0.5, 2),
			sizes: dense,
		},
		{
			name: "spanner", paper: "Corollary 2 (k=log n)", k: 0,
			graph: "connected:%d:0.05", schedule: "random:4", delays: "random",
			timeModel: stats.Model{Name: "ρ·log² n", F: nil}, msgModel: stats.NLog2N, advModel: stats.Log2N,
			sizes: sparse,
		},
		{
			name: "flood", paper: "baseline",
			graph: "connected:%d:0.01", schedule: "single", delays: "random",
			timeModel: stats.Model{Name: "ρ_awk", F: nil}, msgModel: stats.Model{Name: "m", F: nil}, advModel: stats.Const,
			sizes: sparse,
		},
	}

	runner := experiment.Runner{Workers: *workers, MasterSeed: *seed}
	graphs := make(map[graphKey]*graph.Graph)
	for _, row := range rows {
		if err := runRow(runner, row, *seeds, graphs); err != nil {
			fmt.Fprintf(os.Stderr, "table1: %s: %v\n", row.paper, err)
			os.Exit(1)
		}
	}
}

// graphKey names a built graph: its spec and the seed it was parsed with.
type graphKey struct {
	spec string
	seed int64
}

// runRow runs and prints one row. graphs holds every graph an earlier row
// built; the row takes its cells' graphs from it and adds those it builds.
func runRow(runner experiment.Runner, row rowSpec, seeds int, graphs map[graphKey]*graph.Graph) error {
	fmt.Printf("== %s — algorithm %q on %s (schedule %s, delays %s) ==\n",
		row.paper, row.name, row.graph, row.schedule, row.delays)

	// One spec per (size, seed) cell, in deterministic matrix order. The
	// Runner seeds cell i with sim.RunSeed(master, i), the seed its graph
	// is parsed with.
	var specs []experiment.RunSpec
	for _, n := range row.sizes {
		for s := 0; s < seeds; s++ {
			key := graphKey{fmt.Sprintf(row.graph, n), sim.RunSeed(runner.MasterSeed, len(specs))}
			g := graphs[key]
			if g == nil {
				var err error
				if g, err = experiment.ParseGraph(key.spec, key.seed); err != nil {
					return err
				}
				graphs[key] = g
			}
			specs = append(specs, experiment.RunSpec{
				G:           g,
				Algorithm:   row.name,
				K:           row.k,
				Schedule:    row.schedule,
				Delays:      row.delays,
				RandomPorts: true,
			})
		}
	}
	results, err := runner.Run(specs)
	if err != nil {
		return err
	}

	tbl := &experiment.Table{Header: []string{
		"n", "m", "rho", "D", "time", "msgs", "advice-max(b)", "advice-avg(b)",
	}}
	var msgPts, timePts, advPts []stats.Point
	for i, n := range row.sizes {
		var msgs, span, advMax, advAvg, ms, rhos, diams float64
		for s := 0; s < seeds; s++ {
			rr := results[i*seeds+s]
			res := rr.Res
			if !res.AllAwake {
				return fmt.Errorf("n=%d seed=%d: only %d/%d nodes woke", n, rr.Seed, res.AwakeCount, res.N)
			}
			msgs += float64(res.Messages)
			span += float64(res.Span)
			advMax = math.Max(advMax, float64(res.AdviceMaxBits))
			advAvg += res.AdviceAvgBits()
			ms += float64(res.M)
			diam, derr := rr.Graph.Diameter()
			if derr == nil {
				diams += float64(diam)
			}
			rhos += float64(rr.Graph.AwakeDistance(res.AwakeSet()))
		}
		f := float64(seeds)
		tbl.Add(n, int(ms/f), rhos/f, int(diams/f), span/f, int(msgs/f), int(advMax), advAvg/f)
		msgPts = append(msgPts, stats.Point{N: float64(n), Y: msgs / f})
		timePts = append(timePts, stats.Point{N: float64(n), Y: span / f})
		if advMax > 0 {
			advPts = append(advPts, stats.Point{N: float64(n), Y: advMax})
		}
	}
	fmt.Print(tbl)
	slope, _ := stats.LogLogFit(msgPts)
	fmt.Printf("messages: paper %s; measured log-log slope %.2f", row.msgModel.Name, slope)
	if row.msgModel.F != nil {
		_, spread := stats.Constancy(msgPts, row.msgModel)
		fmt.Printf(" (ratio spread vs model: %.2f)", spread)
	}
	fmt.Println()
	tslope, _ := stats.LogLogFit(timePts)
	fmt.Printf("time:     paper %s; measured log-log slope %.2f\n", row.timeModel.Name, tslope)
	if len(advPts) > 0 {
		aslope, _ := stats.LogLogFit(advPts)
		fmt.Printf("advice:   paper %s; measured log-log slope %.2f\n", row.advModel.Name, aslope)
	}
	fmt.Println()
	return nil
}
