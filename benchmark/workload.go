package main

import (
	"fmt"
	"math"
	"time"

	"riseandshine"
	"riseandshine/internal/core"
	"riseandshine/internal/exectrace"
	"riseandshine/internal/experiment"
	"riseandshine/internal/graph"
	"riseandshine/internal/lowerbound"
	"riseandshine/internal/sim"
	"riseandshine/internal/stats"
)

// workload builds its inputs from a seed. The build is the timed set-up;
// the returned plan runs the passes over those inputs. build is the part
// of the set-up spent inside the graph generators.
type workload struct {
	setup func(seed int64) (p plan, build time.Duration, err error)
	// shards is the Runner cell's shard count; the traced-pass guards
	// check that the sharded engine really ran with it.
	shards int
	// reference builds the computation that gauges the host's speed for
	// this workload (see calib.go).
	reference func() *reference
}

// plan runs passes over inputs built once in set-up.
type plan interface {
	// run executes one pass. Every pass starts from fresh engines; a
	// traced pass attaches the flight recorder and the memory report to
	// every Runner cell and times the harness's own calls.
	run(traced bool) *pass
	// edges is the total edge count of the graphs built in set-up.
	edges() int
}

// The Table-1 ladders, seeds per size and Theorem 2 orders are those of
// cmd/table1 and cmd/lowerbound -thm 2 at their defaults.
var (
	table1Sparse = []int{256, 512, 1024, 2048}
	table1Dense  = []int{128, 256, 512}
	thm2Orders   = []int{7, 13, 23, 37}
)

const table1Seeds = 3

var workloads = map[string]workload{
	"table1": {reference: bfsReference, setup: func(seed int64) (plan, time.Duration, error) {
		return setupTable1(seed, table1Rows(table1Sparse, table1Dense), thm2Orders)
	}},
	"flood-dense": {reference: denseReference, setup: floodSetup(floodSpec{
		name: "flood-dense", graph: "complete:2000", schedule: "all", delays: "random", cells: 2,
	})},
	"flood-1e6": {shards: 2, reference: treeReference, setup: floodSetup(floodSpec{
		name: "flood-1e6", graph: "binary:1000000", schedule: "single", delays: "random:0.25", shards: 2, cells: 3,
	})},
}

// pass is one run of a plan: its wall time and the cells it checked.
type pass struct {
	traced bool
	wall   time.Duration
	// report is the harness time spent in the report columns (Diameter,
	// AwakeDistance, Girth); traced passes only.
	report time.Duration
	cells  []*cell
	// reports are table1's report columns and growth fits, one per row.
	reports []rowReport
	// gc is the Go runtime's work during a traced pass.
	gc gcSample
}

// events is the number of engine events the pass processed.
func (p *pass) events() int {
	n := 0
	for _, c := range p.cells {
		if c.res != nil {
			n += c.res.Events
		}
	}
	return n
}

// timed runs f, adding its duration to *acc on traced passes only.
func (p *pass) timed(acc *time.Duration, f func()) {
	if !p.traced {
		f()
		return
	}
	t0 := time.Now()
	f()
	*acc += time.Since(t0)
}

// addRunnerCells records one Runner call's cells; err is the call's error,
// which leaves every cell of the call without a result.
func (p *pass) addRunnerCells(rrs []experiment.RunResult, err error, labels []string, row string, k cellKind) {
	for i, label := range labels {
		c := &cell{label: label, row: row, kind: k, cold: i == 0, err: err}
		if err == nil {
			rr := rrs[i]
			c.res, c.rec, c.dur = rr.Res, rr.Exec, rr.Duration
		}
		p.cells = append(p.cells, c)
	}
}

// runner is the Runner every pass uses: one worker, so at most the sharded
// cells' two shards are busy at once, and the wall clock only when traced.
func runner(seed int64, traced bool) experiment.Runner {
	r := experiment.Runner{Workers: 1, MasterSeed: seed}
	if traced {
		r.Now = time.Now
	}
	return r
}

// floodSpec is one flood workload: cells runs of one pre-built graph, each
// with its own Runner-derived seed.
type floodSpec struct {
	name, graph, schedule, delays string
	shards, cells                 int
}

func floodSetup(fs floodSpec) func(int64) (plan, time.Duration, error) {
	return func(seed int64) (plan, time.Duration, error) {
		t0 := time.Now()
		g, err := experiment.ParseGraph(fs.graph, seed)
		if err != nil {
			return nil, 0, err
		}
		return &floodPlan{spec: fs, g: g, seed: seed}, time.Since(t0), nil
	}
}

type floodPlan struct {
	spec floodSpec
	g    *graph.Graph
	seed int64
}

func (f *floodPlan) edges() int { return f.g.M() }

func (f *floodPlan) run(traced bool) *pass {
	p := &pass{traced: traced}
	specs := make([]experiment.RunSpec, f.spec.cells)
	labels := make([]string, len(specs))
	for i := range specs {
		specs[i] = experiment.RunSpec{
			G: f.g, Algorithm: "flood", Schedule: f.spec.schedule, Delays: f.spec.delays,
			Shards: f.spec.shards, ExecTrace: traced, MemReport: traced,
		}
		labels[i] = fmt.Sprintf("%s/%d", f.spec.name, i)
	}
	t0 := time.Now()
	rrs, err := runner(f.seed, traced).Run(specs)
	p.wall = time.Since(t0)
	p.addRunnerCells(rrs, err, labels, f.spec.name, cellKind{congest: true, flood: true})
	return p
}

// table1Row mirrors one algorithm row of cmd/table1.
type table1Row struct {
	name, alg, graph, schedule, delays string
	k                                  int
	sizes                              []int
	msgModel                           stats.Model
}

func table1Rows(sparse, dense []int) []table1Row {
	return []table1Row{
		{name: "dfs-rank", alg: "dfs-rank", graph: "connected:%d:0.01", schedule: "staggered:1,2,4,8:64", delays: "random", sizes: sparse, msgModel: stats.NLogN},
		{name: "fast-wakeup", alg: "fast-wakeup", graph: "connected:%d:0.2", schedule: "all", delays: "unit", sizes: dense, msgModel: stats.N32SqrtLg},
		{name: "fip06", alg: "fip06", graph: "connected:%d:0.01", schedule: "single", delays: "random", sizes: sparse, msgModel: stats.Linear},
		{name: "threshold", alg: "threshold", graph: "connected:%d:0.01", schedule: "single", delays: "random", sizes: sparse, msgModel: stats.N32},
		{name: "cen", alg: "cen", graph: "connected:%d:0.01", schedule: "single", delays: "random", sizes: sparse, msgModel: stats.Linear},
		{name: "spanner-k2", alg: "spanner", k: 2, graph: "connected:%d:0.05", schedule: "random:4", delays: "random", sizes: dense, msgModel: stats.PowerLog(1.5, 0)},
		{name: "spanner-logn", alg: "spanner", graph: "connected:%d:0.05", schedule: "random:4", delays: "random", sizes: sparse, msgModel: stats.NLog2N},
		{name: "flood", alg: "flood", graph: "connected:%d:0.01", schedule: "single", delays: "random", sizes: sparse},
	}
}

type table1Plan struct {
	seed   int64
	rows   []table1Row
	kinds  []cellKind       // kinds[r] applies to every cell of row r
	graphs [][]*graph.Graph // graphs[r][i] is row r's cell i
	thm2   []*lowerbound.Instance
	m      int
}

// setupTable1 builds every cell's graph the way cmd/table1 seeds it: cell i
// of a row parses the row's spec with sim.RunSeed(seed, i). Rows sharing a
// spec and seed share the graph, which is immutable.
func setupTable1(seed int64, rows []table1Row, orders []int) (plan, time.Duration, error) {
	t := &table1Plan{seed: seed, rows: rows, graphs: make([][]*graph.Graph, len(rows))}
	built := make(map[string]*graph.Graph)
	var build time.Duration
	for r, row := range rows {
		info, err := riseandshine.Lookup(row.alg)
		if err != nil {
			return nil, 0, err
		}
		t.kinds = append(t.kinds, cellKind{congest: info.Model.Bandwidth == riseandshine.Congest, flood: row.alg == "flood", table1: true})
		for si, n := range row.sizes {
			for s := 0; s < table1Seeds; s++ {
				spec := fmt.Sprintf(row.graph, n)
				cellSeed := sim.RunSeed(seed, si*table1Seeds+s)
				key := fmt.Sprintf("%s@%d", spec, cellSeed)
				g := built[key]
				if g == nil {
					t0 := time.Now()
					if g, err = experiment.ParseGraph(spec, cellSeed); err != nil {
						return nil, 0, err
					}
					build += time.Since(t0)
					built[key] = g
					t.m += g.M()
				}
				t.graphs[r] = append(t.graphs[r], g)
			}
		}
	}
	for _, q := range orders {
		t0 := time.Now()
		in, err := lowerbound.BuildGkProjective(q, seed)
		if err != nil {
			return nil, 0, err
		}
		build += time.Since(t0)
		t.thm2 = append(t.thm2, in)
		t.m += in.G.M()
	}
	return t, build, nil
}

func (t *table1Plan) edges() int { return t.m }

// rowReport holds the columns and growth fits cmd/table1 prints for a
// row (msgSpread is NaN for a row without a message model), or for the
// Theorem 2 row the girth column and each run's messages over n^{1+1/k}.
type rowReport struct {
	name                string
	diam, rho           []float64 // per size, averaged over seeds
	msgSlope, timeSlope float64
	advSlope, msgSpread float64
	girth               []int
	msgsPerBound        []float64
}

func (t *table1Plan) run(traced bool) *pass {
	p := &pass{traced: traced}
	t0 := time.Now()
	for r, row := range t.rows {
		specs := make([]experiment.RunSpec, len(t.graphs[r]))
		labels := make([]string, len(specs))
		for i, g := range t.graphs[r] {
			specs[i] = experiment.RunSpec{
				G: g, Algorithm: row.alg, K: row.k, Schedule: row.schedule, Delays: row.delays,
				RandomPorts: true, ExecTrace: traced, MemReport: traced,
			}
			labels[i] = fmt.Sprintf("%s/n=%d/s=%d", row.name, row.sizes[i/table1Seeds], i%table1Seeds)
		}
		rrs, err := runner(t.seed, traced).Run(specs)
		p.addRunnerCells(rrs, err, labels, row.name, t.kinds[r])
		if err == nil {
			p.timed(&p.report, func() { p.reports = append(p.reports, table1Columns(row, rrs)) })
		}
	}
	p.reports = append(p.reports, t.theorem2(p))
	p.wall = time.Since(t0)
	return p
}

// table1Columns computes a row's D and ρ_awk columns and its growth fits,
// cell by cell as cmd/table1 does.
func table1Columns(row table1Row, rrs []experiment.RunResult) rowReport {
	rep := rowReport{name: row.name, msgSpread: math.NaN()}
	var msgPts, timePts, advPts []stats.Point
	for si, n := range row.sizes {
		var msgs, span, advMax, diams, rhos float64
		for s := 0; s < table1Seeds; s++ {
			rr := rrs[si*table1Seeds+s]
			msgs += float64(rr.Res.Messages)
			span += float64(rr.Res.Span)
			advMax = math.Max(advMax, float64(rr.Res.AdviceMaxBits))
			if d, err := rr.Graph.Diameter(); err == nil {
				diams += float64(d)
			}
			rhos += float64(rr.Graph.AwakeDistance(rr.Res.AwakeSet()))
		}
		f := float64(table1Seeds)
		rep.diam = append(rep.diam, diams/f)
		rep.rho = append(rep.rho, rhos/f)
		msgPts = append(msgPts, stats.Point{N: float64(n), Y: msgs / f})
		timePts = append(timePts, stats.Point{N: float64(n), Y: span / f})
		if advMax > 0 {
			advPts = append(advPts, stats.Point{N: float64(n), Y: advMax})
		}
	}
	rep.msgSlope, _ = stats.LogLogFit(msgPts)
	rep.timeSlope, _ = stats.LogLogFit(timePts)
	rep.advSlope, _ = stats.LogLogFit(advPts)
	if row.msgModel.F != nil {
		_, rep.msgSpread = stats.Constancy(msgPts, row.msgModel)
	}
	return rep
}

// thm2Algs are the two strategies cmd/lowerbound -thm 2 compares.
var thm2Algs = []sim.Algorithm{lowerbound.CenterBroadcast{}, core.DFSRank{}}

// theorem2 runs the Theorem 2 row: both strategies on every instance,
// through lowerbound.Run as cmd/lowerbound does.
func (t *table1Plan) theorem2(p *pass) rowReport {
	rep := rowReport{name: "lb-thm2"}
	model := sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}
	for _, in := range t.thm2 {
		n := float64(len(in.V))
		p.timed(&p.report, func() { rep.girth = append(rep.girth, in.G.Girth()) })
		lbModel := math.Pow(n, 1+1/in.EffectiveK())
		for _, alg := range thm2Algs {
			c := &cell{label: fmt.Sprintf("lb-thm2/q=%d/%s", in.CoreDegree-1, alg.Name()), row: "lb-thm2"}
			var rep0 *lowerbound.Report
			p.timed(&c.harness, func() { rep0, c.err = lowerbound.Run(in, model, alg, nil, sim.UnitDelay{}, t.seed) })
			if c.err == nil {
				c.res, c.unsolved = rep0.Result, !rep0.Solved
				rep.msgsPerBound = append(rep.msgsPerBound, float64(c.res.Messages)/lbModel)
			}
			p.cells = append(p.cells, c)
		}
	}
	return rep
}

// cellKind selects the seed-free invariants that apply to a Runner cell.
type cellKind struct {
	congest bool // CONGEST row: no message may exceed the bit limit
	flood   bool // Messages = 2m, Events = adversary wakes + 2m
	table1  bool // reported under its table1.<row>.* metrics
}

// cell is one checked run inside a pass.
type cell struct {
	label string // unique within a pass
	row   string
	kind  cellKind
	cold  bool // first cell of its Runner call, on a fresh engine
	res   *sim.Result
	err   error
	// unsolved marks a Theorem 2 instance with a needle left unfound.
	unsolved bool

	// Traced passes only: the Runner cell's flight recorder and duration,
	// or the harness's timing of lowerbound.Run.
	rec     *exectrace.Recorder
	dur     time.Duration
	harness time.Duration
}
