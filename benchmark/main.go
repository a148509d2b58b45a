// Command benchmark is the repository's end-to-end benchmark. It builds one
// workload's inputs from a seed, runs passes over them through the public
// API for a fixed time — each pass in a fresh process of this binary —
// checks every result, and prints its metrics by name and unit; the last
// line of its output is one JSON object. With --trace 0 it prints the
// end-to-end metrics, from untraced passes only; with --trace 1 it
// alternates untraced and traced passes and prints the per-layer metrics.
// See README.md for the workloads and metrics.
//
//	bash benchmark/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, so one slow build (a cold heap, a noisy neighbour) does not move it.
const setupReps = 9

// minPasses is the fewest passes a run makes, even past --seconds. Two,
// not three: scaled passes of one run agree to a few percent, and in the
// host's slowest minutes a table1 pass took 20 s, so three passes would
// have taken a table1 run past a minute.
const minPasses = 2

// metric is one reported figure.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports. The times are CPU
// time scaled to a fixed host speed (see calib.go), not wall time: on a
// shared host the wall time of the same pass moves by a third from one
// minute to the next with the load of other machines (see README.md).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"scaled_cpu_s", "s"},
	{"events_per_scaled_cpu_s", "events/s"},
	{"peak_rss_mib", "MiB"},
	{"ok_frac", "fraction"},
}

// perLayer are the metrics a --trace 1 run reports; see README.md for the
// layer each belongs to and the end-to-end metric it should move.
var perLayer = func() []metric {
	ms := []metric{
		{"wall_s", "s"}, {"events_per_s", "events/s"}, {"host.speed", "ratio"},
		{"graph.build_s", "s"}, {"graph.edges", "count"}, {"graph.report_s", "s"},
		{"prepare.s", "s"}, {"prepare.advice_bits", "bits"},
		{"engine.setup_s", "s"}, {"engine.loop_s", "s"}, {"engine.finish_s", "s"},
		{"engine.events", "count"}, {"engine.messages", "count"}, {"engine.bits", "bits"},
		{"engine.ns_per_event", "ns"},
		{"engine.mem.queue_mib", "MiB"}, {"engine.mem.fifo_mib", "MiB"}, {"engine.mem.rng_mib", "MiB"},
		{"engine.mem.csr_mib", "MiB"}, {"engine.mem.nodes_mib", "MiB"}, {"engine.mem.outbox_mib", "MiB"},
		{"shard.busy_s", "s"}, {"shard.busy_max_s", "s"}, {"shard.barrier_s", "s"},
		{"shard.merge_s", "s"}, {"shard.replay_s", "s"}, {"shard.windows", "count"},
		{"shard.events_per_window_p50", "count"}, {"shard.imbalance", "ratio"}, {"shard.efficiency", "ratio"},
		{"runner.first_cell_s", "s"}, {"runner.cell_s_p50", "s"},
		{"gc.alloc_mib", "MiB"}, {"gc.cycles", "count"}, {"gc.cpu_s", "s"},
	}
	for _, row := range table1Rows(nil, nil) {
		ms = append(ms, metric{"table1." + row.name + ".prepare_s", "s"})
	}
	for _, row := range append(table1Rows(nil, nil), table1Row{name: "lb-thm2"}) {
		ms = append(ms, metric{"table1." + row.name + ".engine_s", "s"})
	}
	for _, f := range failNames {
		ms = append(ms, metric{f, "count"})
	}
	return append(ms, metric{"trace.overhead_frac", "fraction"})
}()

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table1, flood-dense or flood-1e6")
	seed := fs.Int64("seed", defaultSeed, "workload seed; expect.json holds the fingerprints for the default")
	seconds := fs.Int("seconds", 15, "how long the passes run, in seconds (set-up is extra)")
	trace := fs.Int("trace", 0, "0: untraced passes, end-to-end metrics; 1: traced passes too, per-layer metrics")
	one := fs.Bool("pass", false, "run one pass (traced with --trace 1) and print its outcome as JSON; a run starts one such process per pass")
	builds := fs.Bool("setup", false, "build the inputs as a run's set-up does and print the times as JSON; a run starts one such process")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want table1, flood-dense or flood-1e6)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *one {
		return onePass(w, *seed, *trace == 1, stdout, stderr)
	}
	if *builds {
		return setupBuilds(w, *seed, stdout)
	}
	expect, err := expected(*name, *seed)
	if err != nil {
		return err
	}
	env, err := json.Marshal(environment(*name, *seed, *trace))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env %s\n", env)

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res, err := measure(exe, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, expect, stderr)
	if err != nil {
		return err
	}
	return res.write(stdout, *trace == 1)
}

// result is one run's outcome: the check counts and every metric value.
type result struct {
	attempted, failed int
	values            map[string]float64
}

// write prints every metric of the run's kind as a line, then the JSON
// object the last line of the output must be.
func (r *result) write(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		v := r.values[d.name]
		out.Metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "metric %-32s %-14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// measure has a process of exe build the workload's inputs setupReps
// times, then runs at least minPasses passes, each in a process of exe,
// and more while the next one would end within budget: untraced only, or
// — when traced — alternating untraced and traced, starting untraced. The
// first pass's fingerprints are the reference every later pass must
// reproduce. A gauge of the workload's reference runs through the set-up
// and through each pass, and scales the CPU times measured meanwhile (see
// calib.go).
func measure(exe, name string, seed int64, budget time.Duration, traced bool, expect map[string]string, log io.Writer) (*result, error) {
	w := workloads[name]
	ref := w.reference()
	ref.warmUp()
	var scales []float64

	g := ref.start()
	var so setupOutcome
	err := runChild(exe, name, seed, log, &so, "--setup")
	setupScale := g.scale()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	scales = append(scales, setupScale)
	fmt.Fprintf(log, "setup cpu_s %.4f scale %.4f\n", so.CPU, setupScale)

	checks := newTally(expect)
	var walls, cpus, rss, tracedCPUs []float64
	var layers []map[string]float64
	var events int
	start := time.Now()
	for i := 0; ; i++ {
		tr := traced && i%2 == 1
		trace := "0"
		if tr {
			trace = "1"
		}
		g := ref.start()
		o := new(passOutcome)
		err := runChild(exe, name, seed, log, o, "--pass", "--trace", trace)
		s := g.scale()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		scales = append(scales, s)
		checks.check(o)
		fmt.Fprintf(log, "pass %d traced=%t wall_s=%.4f cpu_s=%.4f scale=%.4f events=%d peak_rss_mib=%.1f\n", i, tr, o.Wall, o.CPU, s, o.Events, o.RSS)
		if tr {
			tracedCPUs = append(tracedCPUs, o.CPU*s)
			layers = append(layers, o.Layers)
		} else {
			walls = append(walls, o.Wall)
			cpus = append(cpus, o.CPU*s)
			rss = append(rss, o.RSS)
		}
		events = o.Events
		if i+1 >= minPasses && time.Since(start)+time.Duration(o.Wall*float64(time.Second)) > budget {
			break
		}
	}
	fmt.Fprintf(log, "reference checksum %d\n", ref.sink)

	r := &result{attempted: checks.attempted, failed: checks.failed, values: make(map[string]float64)}
	if !traced {
		cpu := median(cpus)
		r.values["setup_s"] = median(so.CPU) * setupScale
		r.values["scaled_cpu_s"] = cpu
		r.values["events_per_scaled_cpu_s"] = float64(events) / cpu
		r.values["peak_rss_mib"] = slices.Min(rss)
		r.values["ok_frac"] = 1 - float64(checks.failed)/float64(checks.attempted)
		return r, nil
	}
	for _, d := range perLayer {
		var vs []float64
		for _, m := range layers {
			vs = append(vs, m[d.name])
		}
		r.values[d.name] = median(vs)
	}
	wall := median(walls)
	r.values["wall_s"] = wall
	r.values["events_per_s"] = float64(events) / wall
	r.values["host.speed"] = median(scales)
	r.values["graph.build_s"] = median(so.Build)
	r.values["graph.edges"] = float64(so.Edges)
	for _, f := range failNames {
		r.values[f] = float64(checks.counts[f])
	}
	r.values["trace.overhead_frac"] = median(tracedCPUs)/median(cpus) - 1
	return r, nil
}

// passOutcome is what one pass reports to the run that started it.
type passOutcome struct {
	Wall float64 `json:"wall_s"`
	// CPU is the CPU time, user plus system, every thread of the pass
	// process spent in the pass.
	CPU    float64 `json:"cpu_s"`
	Events int     `json:"events"`
	// RSS is the pass process's resident-set high-water mark (VmHWM):
	// one set-up build plus the pass, what a one-shot run peaks at.
	RSS    float64            `json:"peak_rss_mib"`
	Cells  []cellOutcome      `json:"cells"`
	Layers map[string]float64 `json:"layers,omitempty"` // traced passes only
}

// cellOutcome is one cell's fingerprint ("" when its run failed) and the
// seed-free checks it failed.
type cellOutcome struct {
	Label string   `json:"label"`
	FP    string   `json:"fp"`
	Fails []string `json:"fails"`
}

// outcome reduces a finished pass to what the parent run needs.
func outcome(p *pass, shards int) *passOutcome {
	o := &passOutcome{Wall: p.wall.Seconds(), Events: p.events(), RSS: peakRSSMiB()}
	for _, c := range p.cells {
		co := cellOutcome{Label: c.label, Fails: c.failures(p.traced, shards)}
		if c.res != nil {
			co.FP = fmt.Sprintf("%016x", fingerprint(c.res))
		}
		o.Cells = append(o.Cells, co)
	}
	if p.traced {
		o.Layers = layerMetrics(p)
	}
	return o
}

// setupOutcome is what the set-up process reports.
type setupOutcome struct {
	CPU   []float64 `json:"cpu_s"`   // each build's CPU seconds
	Build []float64 `json:"build_s"` // each build's time in the graph generators
	Edges int       `json:"edges"`
}

// setupBuilds is the process behind a run's set-up: it builds the inputs
// setupReps times and prints the times as JSON. It is a process of its
// own so that its allocation and collections do not disturb the gauge in
// the run's process.
func setupBuilds(w workload, seed int64, out io.Writer) error {
	var o setupOutcome
	for i := 0; i < setupReps; i++ {
		// A collection first, so that no build pays for the last one's
		// garbage. The heap keeps its pages: builds that had to fault them
		// in again took 0.15 to 0.29 s of CPU within one flood-dense run,
		// where with the pages kept they took 0.22 to 0.25 s.
		runtime.GC()
		cpu0 := cpuSeconds()
		p, build, err := w.setup(seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		o.CPU = append(o.CPU, cpuSeconds()-cpu0)
		o.Build = append(o.Build, build.Seconds())
		o.Edges = p.edges()
	}
	return json.NewEncoder(out).Encode(o)
}

// onePass is the process behind one pass: it builds the inputs once, runs
// one pass, and prints the outcome as the last line of out. Every pass is
// a fresh process because the garbage collector's pacing carries over from
// one pass to the next inside a process: on flood-dense, passes after the
// first repeated whichever peak the process had settled on, from about
// 1030 to 1440 MiB, so the passes of one process were not independent
// samples.
func onePass(w workload, seed int64, traced bool, out, log io.Writer) error {
	pl, _, err := w.setup(seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	gc0, cpu0 := readGC(), cpuSeconds()
	p := pl.run(traced)
	cpu := cpuSeconds() - cpu0
	p.gc = readGC().minus(gc0)
	o := outcome(p, w.shards)
	o.CPU = cpu
	printReports(log, p.reports)
	return json.NewEncoder(out).Encode(o)
}

// runChild runs the executable exe on the workload and seed with the
// extra arguments, and decodes the last line of its standard output, JSON,
// into v; the child's standard error goes to log.
func runChild(exe, workload string, seed int64, log io.Writer, v any, extra ...string) error {
	var out bytes.Buffer
	cmd := exec.Command(exe, append([]string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10)}, extra...)...)
	cmd.Stdout, cmd.Stderr = &out, log
	if err := cmd.Run(); err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], v); err != nil {
		return fmt.Errorf("child outcome: %w", err)
	}
	return nil
}

// layerMetrics reduces one traced pass to its per-layer figures. Engine
// figures come from the Runner cells' flight recorders and memory
// reports; the Theorem 2 cells run through lowerbound.Run, which takes no
// recorder, so they show only in table1.lb-thm2.engine_s, timed around the
// call.
func layerMetrics(p *pass) map[string]float64 {
	m := make(map[string]float64)
	add := func(name string, ns int64) { m[name] += float64(ns) / 1e9 }
	peak := func(name string, bytes int64) { m[name] = max(m[name], float64(bytes)/(1<<20)) }
	var cold, warm, perWindow []float64
	var loopNS, busyNS, busyMaxNS int64
	var shardTracks, shardedCells int
	for _, c := range p.cells {
		if c.res == nil {
			continue
		}
		if c.rec == nil {
			add("table1."+c.row+".engine_s", c.harness.Nanoseconds())
			continue
		}
		r, st := c.res, c.rec.Stall()
		t0 := st.Tracks[0]
		engine := t0.SetupNS + t0.RunNS + t0.FinishNS
		add("engine.setup_s", t0.SetupNS)
		add("engine.finish_s", t0.FinishNS)
		loopNS += t0.RunNS
		m["engine.events"] += float64(r.Events)
		m["engine.messages"] += float64(r.Messages)
		m["engine.bits"] += float64(r.MessageBits)
		m["prepare.advice_bits"] += float64(r.AdviceTotalBits)
		add("prepare.s", t0.CellNS-engine)
		if c.kind.table1 {
			add("table1."+c.row+".prepare_s", t0.CellNS-engine)
			add("table1."+c.row+".engine_s", engine)
		}
		if mem := r.Mem; mem != nil {
			peak("engine.mem.queue_mib", mem.QueueBytes)
			peak("engine.mem.fifo_mib", mem.FIFOBytes)
			peak("engine.mem.rng_mib", mem.RNGBytes)
			peak("engine.mem.csr_mib", mem.CSRBytes)
			peak("engine.mem.nodes_mib", mem.NodeBytes)
			peak("engine.mem.outbox_mib", mem.OutboxBytes)
		}
		if len(st.Tracks) > 1 {
			shardedCells++
			var most int64
			for _, ts := range st.Tracks[1:] {
				shardTracks++
				busyNS += ts.BusyNS
				most = max(most, ts.BusyNS)
				add("shard.barrier_s", ts.BarrierNS)
			}
			busyMaxNS += most
			add("shard.merge_s", t0.MergeNS)
			add("shard.replay_s", t0.ReplayNS)
			m["shard.windows"] += float64(st.Windows)
			if st.EventsPerWindow.Count > 0 {
				perWindow = append(perWindow, st.EventsPerWindow.Quantile(0.5))
			}
		}
		if c.cold {
			cold = append(cold, c.dur.Seconds())
		} else {
			warm = append(warm, c.dur.Seconds())
		}
	}
	add("engine.loop_s", loopNS)
	if m["engine.events"] > 0 {
		m["engine.ns_per_event"] = float64(loopNS) / m["engine.events"]
	}
	add("shard.busy_s", busyNS)
	add("shard.busy_max_s", busyMaxNS)
	if busyNS > 0 {
		perCell := float64(shardTracks) / float64(shardedCells)
		m["shard.imbalance"] = float64(busyMaxNS) * perCell / float64(busyNS)
		m["shard.efficiency"] = float64(busyNS) / (perCell * float64(loopNS))
	}
	m["shard.events_per_window_p50"] = median(perWindow)
	m["runner.first_cell_s"] = median(cold)
	m["runner.cell_s_p50"] = median(warm)
	m["graph.report_s"] = p.report.Seconds()
	m["gc.alloc_mib"] = p.gc.allocBytes / (1 << 20)
	m["gc.cycles"] = p.gc.cycles
	m["gc.cpu_s"] = p.gc.cpuSeconds
	return m
}

// gcSample is a reading of the Go runtime's cumulative GC counters.
type gcSample struct {
	allocBytes, cycles, cpuSeconds float64
}

var gcMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return gcSample{v[0], v[1], v[2]}
}

func (g gcSample) minus(o gcSample) gcSample {
	return gcSample{g.allocBytes - o.allocBytes, g.cycles - o.cycles, g.cpuSeconds - o.cpuSeconds}
}

// cpuSeconds is the CPU time, user plus system, every thread of this
// process has used so far (CLOCK_PROCESS_CPUTIME_ID). Time the kernel gives
// other processes, and time the hypervisor steals from the VM, is not in it.
func cpuSeconds() float64 {
	return clockSeconds(2)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of vs, 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printReports writes table1's growth fits, as cmd/table1 prints them, to
// the log; the other workloads have none.
func printReports(w io.Writer, reports []rowReport) {
	for _, r := range reports {
		if r.girth != nil {
			fmt.Fprintf(w, "table1 %-13s girth %d msgs/n^{1+1/k} %.3g\n", r.name, r.girth, r.msgsPerBound)
			continue
		}
		fmt.Fprintf(w, "table1 %-13s D %.3g rho %.3g msgs slope %.2f (ratio spread %.2f) time slope %.2f advice slope %.2f\n",
			r.name, r.diam, r.rho, r.msgSlope, r.msgSpread, r.timeSlope, r.advSlope)
	}
}

// env is the context every output records.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func environment(workload string, seed int64, trace int) env {
	return env{
		Workload: workload, Seed: seed, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Go: runtime.Version(), CPU: cpuModel(), Commit: commit(),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, with "+dirty" for
// uncommitted changes; "unknown" when built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
