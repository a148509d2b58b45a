// Command sweep measures how an algorithm's cost scales with network size
// and fits empirical growth exponents. It is the generic workhorse behind
// the per-row experiments of cmd/table1.
//
// Runs fan out over a bounded worker pool (-workers, default NumCPU). Each
// run derives its seed from the master seed and its position in the
// (size × seed) matrix, so the output is byte-identical for any worker
// count.
//
//	sweep -alg cen -graph connected:%d:0.01 -sizes 256,512,1024,2048 -schedule single
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"riseandshine"
	"riseandshine/internal/exectrace"
	"riseandshine/internal/experiment"
	"riseandshine/internal/stats"
)

func main() {
	if err := run(); err != nil {
		slog.New(exectrace.NewLogHandler(os.Stderr, slog.LevelInfo)).Error("sweep failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algName  = flag.String("alg", "flood", "algorithm name")
		graphT   = flag.String("graph", "connected:%d:0.01", "graph spec template with %d for n")
		sizesStr = flag.String("sizes", "128,256,512,1024", "comma-separated network sizes")
		schedule = flag.String("schedule", "single", "wake schedule spec")
		delays   = flag.String("delays", "random", "delay adversary: unit | random | random:MIN")
		mem      = flag.Bool("mem", false, "print a per-size scratch memory table by subsystem")
		seeds    = flag.Int("seeds", 3, "seeds per size")
		seed     = flag.Int64("seed", 1, "master seed; run i derives its seed from (seed, i)")
		k        = flag.Int("k", 0, "spanner parameter")
		workers  = flag.Int("workers", 0, "parallel workers (0 = NumCPU, divided by -shards)")
		shards   = flag.Int("shards", 0, "run each cell on the sharded engine with this many partitions (byte-identical results; needs a positive-lookahead delay adversary, e.g. unit or random:MIN)")
		csvPath  = flag.String("csv", "", "write the sweep as CSV to this path (optional)")
		digest   = flag.Bool("digest", false, "print one combined FNV transcript digest per size (byte-identical across hosts and worker counts)")

		metricsPath = flag.String("metrics", "", "write one deterministic metrics JSON record per run (matrix order) to this JSONL path")
		progress    = flag.Bool("progress", false, "report completed/total runs with ETA on stderr")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this path")
		memProfile  = flag.String("memprofile", "", "write a heap profile (taken after the sweep) to this path")
		httpAddr    = flag.String("http", "", "serve live /metrics, /exectrace, and /debug/pprof on this address while the sweep runs")
		execPath    = flag.String("exectrace", "", "record each run's execution timeline, write the final run's Chrome trace JSON (Perfetto-loadable) to this path, and print per-size stall summaries (with -mem: stall columns on the memory table)")
	)
	flag.Parse()

	// All status output goes through the deterministic slog handler:
	// level/msg/attr lines with no timestamps, so logs diff cleanly across
	// runs. Completion order still depends on scheduling — the log, like
	// the live registry, is not a deterministic output.
	logger := slog.New(exectrace.NewLogHandler(os.Stderr, slog.LevelInfo))

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var sizes []int
	for _, s := range strings.Split(*sizesStr, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad size %q: %w", s, err)
		}
		sizes = append(sizes, v)
	}

	// One spec per (size, seed) cell, in deterministic matrix order.
	recordMetrics := *metricsPath != "" || *httpAddr != ""
	recordExec := *execPath != "" || *httpAddr != ""
	var specs []experiment.RunSpec
	for _, n := range sizes {
		for s := 0; s < *seeds; s++ {
			specs = append(specs, experiment.RunSpec{
				Graph:         fmt.Sprintf(*graphT, n),
				Algorithm:     *algName,
				K:             *k,
				Schedule:      *schedule,
				Delays:        *delays,
				RandomPorts:   true,
				RecordDigests: *digest,
				Metrics:       recordMetrics,
				MemReport:     *mem,
				Shards:        *shards,
				ExecTrace:     recordExec,
			})
		}
	}
	// The core budget is split between the two parallelism axes: with
	// -shards S and default workers, each of NumCPU/S workers drives an
	// S-core sharded run, so the sweep never oversubscribes the machine.
	poolWorkers := *workers
	if poolWorkers == 0 && *shards > 1 {
		if poolWorkers = runtime.NumCPU() / *shards; poolWorkers < 1 {
			poolWorkers = 1
		}
	}
	runner := experiment.Runner{Workers: poolWorkers, MasterSeed: *seed, Now: time.Now}

	// Live observability: sweep-level counters plus every finished run's
	// snapshot merged in, exposed over HTTP while the sweep runs. The live
	// registry is scrape-time state only — the deterministic outputs below
	// come from the per-run snapshots in matrix order.
	live := riseandshine.NewMetricsRegistry()
	runsDone := live.NewCounter("sweep_runs_completed_total", "runs finished so far")
	riseandshine.NewMetricsObserver(live, 0) // pre-register the sim_* metrics so merges inherit their help text

	// latestTrace holds the most recent completed run's rendered Chrome
	// trace, published by the (serialized) Progress callback for the
	// /exectrace endpoint.
	var latestTrace atomic.Value // []byte
	var srv *http.Server
	if *httpAddr != "" {
		// A dedicated mux and server — never the global DefaultServeMux —
		// so the listener exposes exactly these routes and can be drained
		// on completion (the wakeupd service groundwork).
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := live.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/exectrace", func(w http.ResponseWriter, _ *http.Request) {
			b, _ := latestTrace.Load().([]byte)
			if b == nil {
				http.Error(w, "no completed run yet", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
		})
		// The pprof handlers registered explicitly: a blank import would
		// put them back on the DefaultServeMux this server avoids.
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		srv = &http.Server{Addr: *httpAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("http listener failed", "addr", *httpAddr, "err", err)
			}
		}()
		logger.Info("serving", "addr", *httpAddr, "routes", "/metrics /exectrace /debug/pprof")
	}

	start := time.Now()
	if *progress || *httpAddr != "" {
		runner.Progress = func(done, total int, r experiment.RunResult) {
			runsDone.Inc()
			if r.Metrics != nil {
				live.Merge(*r.Metrics)
			}
			if r.Exec != nil && srv != nil {
				var buf bytes.Buffer
				if err := r.Exec.WriteChromeTrace(&buf); err == nil {
					latestTrace.Store(buf.Bytes())
				}
			}
			if *progress {
				elapsed := time.Since(start)
				eta := time.Duration(0)
				if done > 0 {
					eta = time.Duration(float64(elapsed) / float64(done) * float64(total-done))
				}
				logger.Info("progress", "done", done, "total", total,
					"pct", fmt.Sprintf("%.0f", 100*float64(done)/float64(total)),
					"elapsed", elapsed.Round(time.Millisecond), "eta", eta.Round(time.Millisecond))
			}
		}
	}
	results, err := runner.Run(specs)
	if srv != nil {
		// The sweep is the server's only reason to exist: drain in-flight
		// scrapes and release the port before emitting the final tables.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if serr := srv.Shutdown(ctx); serr != nil {
			logger.Warn("http shutdown", "err", serr)
		} else {
			logger.Info("http listener drained", "addr", *httpAddr)
		}
		cancel()
	}
	if err != nil {
		return err
	}
	if *metricsPath != "" {
		if err := writeMetricsJSONL(*metricsPath, specs, results); err != nil {
			return err
		}
		logger.Info("wrote metrics", "records", len(results), "path", *metricsPath)
	}

	tbl := &experiment.Table{Header: []string{"n", "m", "time", "wake-span", "messages", "bits", "advice-max", "advice-avg"}}
	var msgPts, timePts []stats.Point
	for i, n := range sizes {
		var msgs, span, wspan, bits, ms, advMax, advAvg float64
		for s := 0; s < *seeds; s++ {
			rr := results[i*(*seeds)+s]
			res := rr.Res
			if !res.AllAwake {
				return fmt.Errorf("n=%d seed=%d: only %d/%d woke", n, rr.Seed, res.AwakeCount, res.N)
			}
			msgs += float64(res.Messages)
			span += float64(res.Span)
			wspan += float64(res.WakeSpan)
			bits += float64(res.MessageBits)
			ms += float64(res.M)
			advAvg += res.AdviceAvgBits()
			if float64(res.AdviceMaxBits) > advMax {
				advMax = float64(res.AdviceMaxBits)
			}
		}
		f := float64(*seeds)
		tbl.Add(n, int(ms/f), span/f, wspan/f, int(msgs/f), int(bits/f), int(advMax), advAvg/f)
		msgPts = append(msgPts, stats.Point{N: float64(n), Y: msgs / f})
		timePts = append(timePts, stats.Point{N: float64(n), Y: span / f})
	}
	fmt.Print(tbl)
	if *csvPath != "" {
		if err := tbl.WriteCSV(*csvPath); err != nil {
			return err
		}
	}

	if *digest {
		// Fold the per-run combined digests, in matrix order, into one value
		// per size. Seeds derive from the run's matrix position, so the same
		// command line must print the same digests anywhere.
		fmt.Println()
		for i, n := range sizes {
			perRun := make([]uint64, *seeds)
			for s := 0; s < *seeds; s++ {
				perRun[s] = riseandshine.CombineDigests(results[i*(*seeds)+s].Res.TranscriptDigests)
			}
			fmt.Printf("digest n=%-7d %016x\n", n, riseandshine.CombineDigests(perRun))
		}
	}

	if *mem {
		// Seed 0's report per size: the footprint is a function of the
		// topology and traffic, not the seed, up to hash-dependent in-flight
		// population — one sample per size is representative. With
		// -exectrace the table gains stall columns from the same sample run
		// (wall-clock derived: representative, not deterministic).
		header := []string{"n", "shards", "total", "queue-bytes", "fifo", "rng", "csr", "nodes", "outbox"}
		if recordExec {
			header = append(header, "busy", "barrier", "merge", "imbal")
		}
		memTbl := &experiment.Table{Header: header}
		for i, n := range sizes {
			rr := results[i*(*seeds)]
			m := rr.Res.Mem
			shardsCol := m.Shards
			if shardsCol < 1 {
				shardsCol = 1
			}
			row := []any{n, shardsCol, riseandshine.FormatBytes(m.TotalBytes),
				riseandshine.FormatBytes(m.QueueBytes), riseandshine.FormatBytes(m.FIFOBytes),
				riseandshine.FormatBytes(m.RNGBytes), riseandshine.FormatBytes(m.CSRBytes),
				riseandshine.FormatBytes(m.NodeBytes), riseandshine.FormatBytes(m.OutboxBytes)}
			if recordExec {
				row = append(row, stallColumns(rr.Exec)...)
			}
			memTbl.Add(row...)
		}
		fmt.Println()
		fmt.Print(memTbl)
	}

	if *execPath != "" {
		// Per-size stall summary from seed 0's recorder (same sampling rule
		// as -mem), then the full Chrome trace of the final run in matrix
		// order — a deterministic pick of the largest, most interesting cell.
		fmt.Println()
		for i, n := range sizes {
			rec := results[i*(*seeds)].Exec
			if rec == nil {
				continue
			}
			rep := rec.Stall()
			fmt.Printf("exectrace n=%-7d windows=%-6d imbalance=%.2f busy=%s barrier=%s merge=%s\n",
				n, rep.Windows, rep.Imbalance, sumBusy(rep), sumBarrier(rep), sumMerge(rep))
		}
		if last := results[len(results)-1].Exec; last != nil {
			f, err := os.Create(*execPath)
			if err != nil {
				return err
			}
			if err := last.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			logger.Info("wrote exectrace", "path", *execPath, "viewer", "https://ui.perfetto.dev")
		}
	}

	candidates := []stats.Model{
		stats.Const, stats.LogN, stats.Log2N, stats.Linear, stats.NLogN,
		stats.NLog2N, stats.N32, stats.N32SqrtLg, stats.NSquared,
	}
	mSlope, _ := stats.LogLogFit(msgPts)
	mBest, mSpread := stats.BestModel(msgPts, candidates)
	fmt.Printf("\nmessages: log-log slope %.3f; best model %s (ratio spread %.2f)\n", mSlope, mBest.Name, mSpread)
	tSlope, _ := stats.LogLogFit(timePts)
	tBest, tSpread := stats.BestModel(timePts, candidates)
	fmt.Printf("time:     log-log slope %.3f; best model %s (ratio spread %.2f)\n", tSlope, tBest.Name, tSpread)
	if len(sizes) >= 4 {
		// Sweeps spanning decades (10³–10⁶): the tail fit estimates the
		// asymptotic exponent, the pairwise slopes show its convergence.
		tailK := 3
		mTail, _ := stats.TailFit(msgPts, tailK)
		tTail, _ := stats.TailFit(timePts, tailK)
		fmt.Printf("tail-%d:   messages slope %.3f, time slope %.3f; pairwise messages %s\n",
			tailK, mTail, tTail, formatSlopes(stats.PairwiseSlopes(msgPts)))
	}

	fmt.Println()
	fmt.Print(stats.Plot(stats.PlotConfig{
		Title: fmt.Sprintf("%s: cost vs n (log–log)", *algName),
		LogX:  true, LogY: true,
	},
		stats.Series{Name: "messages", Marker: '*', Points: msgPts},
		stats.Series{Name: "time", Marker: 'o', Points: timePts},
	))

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// stallColumns renders one recorder's aggregate stalls as -mem table
// cells: shard busy/barrier sums, coordinator merge time, and the
// busy-imbalance ratio.
func stallColumns(rec *riseandshine.ExecRecorder) []any {
	if rec == nil {
		return []any{"-", "-", "-", "-"}
	}
	rep := rec.Stall()
	return []any{sumBusy(rep), sumBarrier(rep), sumMerge(rep), fmt.Sprintf("%.2f", rep.Imbalance)}
}

// sumBusy, sumBarrier, and sumMerge aggregate a stall report across
// tracks: busy/barrier over the shard tracks (the engine track for
// sequential runs), merge from the coordinator.
func sumBusy(rep riseandshine.ExecStallReport) time.Duration {
	var v int64
	for _, ts := range rep.Tracks {
		v += ts.BusyNS + ts.RunNS
	}
	return time.Duration(v).Round(time.Microsecond)
}

func sumBarrier(rep riseandshine.ExecStallReport) time.Duration {
	var v int64
	for _, ts := range rep.Tracks[min(1, len(rep.Tracks)):] {
		v += ts.BarrierNS
	}
	return time.Duration(v).Round(time.Microsecond)
}

func sumMerge(rep riseandshine.ExecStallReport) time.Duration {
	var v int64
	for _, ts := range rep.Tracks {
		v += ts.MergeNS
	}
	return time.Duration(v).Round(time.Microsecond)
}

// formatSlopes renders a pairwise-slope sequence compactly.
func formatSlopes(ss []float64) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = strconv.FormatFloat(s, 'f', 2, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// metricsRecord is one line of the -metrics JSONL output. Field order is
// fixed and every value derives from the run's (seed, index), never from
// wall time or scheduling, so the file is byte-identical across hosts and
// worker counts.
type metricsRecord struct {
	Graph     string                        `json:"graph"`
	Algorithm string                        `json:"alg"`
	N         int                           `json:"n"`
	M         int                           `json:"m"`
	Seed      int64                         `json:"seed"`
	Metrics   *riseandshine.MetricsSnapshot `json:"metrics"`
	Frontier  []riseandshine.FrontierPoint  `json:"frontier"`
}

// writeMetricsJSONL writes one record per run, in matrix order.
func writeMetricsJSONL(path string, specs []experiment.RunSpec, results []experiment.RunResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for i, rr := range results {
		rec := metricsRecord{
			Graph:     specs[i].Graph,
			Algorithm: specs[i].Algorithm,
			N:         rr.Res.N,
			M:         rr.Res.M,
			Seed:      rr.Seed,
			Metrics:   rr.Metrics,
			Frontier:  rr.Frontier,
		}
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if _, err := f.Write(data); err != nil {
			return err
		}
	}
	return f.Close()
}
