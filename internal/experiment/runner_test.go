package experiment

import (
	"encoding/json"

	"fmt"
	"riseandshine"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// testMatrix is a small (spec × algorithm) matrix exercising graph parsing,
// random ports, random schedules, and advice schemes under the Runner.
func testMatrix(seedsPer int) []RunSpec {
	var specs []RunSpec
	for _, cell := range []RunSpec{
		{Graph: "complete:24", Algorithm: "flood", Delays: "random", RandomPorts: true},
		{Graph: "connected:40:0.1", Algorithm: "cen", Delays: "random", RandomPorts: true},
		{Graph: "grid:5x5", Algorithm: "dfs-rank", Schedule: "random:3", Delays: "random"},
	} {
		for s := 0; s < seedsPer; s++ {
			specs = append(specs, cell)
		}
	}
	return specs
}

// render aggregates results into the byte-exact table a CLI would print.
func render(t *testing.T, results []RunResult) string {
	t.Helper()
	tbl := &Table{Header: []string{"seed", "n", "m", "msgs", "bits", "span", "wakespan"}}
	for _, rr := range results {
		res := rr.Res
		if !res.AllAwake {
			t.Fatalf("seed %d: only %d/%d nodes woke", rr.Seed, res.AwakeCount, res.N)
		}
		tbl.Add(rr.Seed, res.N, res.M, res.Messages, res.MessageBits,
			float64(res.Span), float64(res.WakeSpan))
	}
	return tbl.String()
}

// TestRunnerDeterministicAcrossWorkers is the harness's core guarantee:
// the aggregated output of a parallel sweep is byte-identical to the
// sequential sweep for the same master seed, at every worker count.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	specs := testMatrix(3)
	sequential := Runner{Workers: 1, MasterSeed: 42}
	want, err := sequential.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := render(t, want)
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		parallel := Runner{Workers: workers, MasterSeed: 42}
		got, err := parallel.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		if gotOut := render(t, got); gotOut != wantOut {
			t.Errorf("workers=%d output differs from sequential:\n--- sequential\n%s--- parallel\n%s",
				workers, wantOut, gotOut)
		}
	}
}

// TestRunnerSeedsDependOnlyOnIndex: the seed of run i is a pure function of
// (master seed, i) — prepending specs shifts seeds, same index reproduces.
func TestRunnerSeedsDependOnlyOnIndex(t *testing.T) {
	specs := testMatrix(1)
	r := Runner{Workers: 2, MasterSeed: 7}
	a, err := r.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Errorf("run %d: seed %d vs %d across invocations", i, a[i].Seed, b[i].Seed)
		}
		if a[i].Seed != sim.RunSeed(7, i) {
			t.Errorf("run %d: seed %d, want RunSeed(7,%d)=%d", i, a[i].Seed, i, sim.RunSeed(7, i))
		}
	}
	other := Runner{Workers: 2, MasterSeed: 8}
	c, err := other.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if c[0].Seed == a[0].Seed {
		t.Error("different master seeds produced the same run seed")
	}
}

// TestRunnerPrebuiltGraph: a shared immutable graph is reused by every run
// instead of being re-parsed.
func TestRunnerPrebuiltGraph(t *testing.T) {
	g, err := ParseGraph("cycle:12", 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := []RunSpec{
		{G: g, Algorithm: "flood"},
		{G: g, Algorithm: "flood"},
	}
	results, err := Runner{Workers: 2, MasterSeed: 1}.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range results {
		if rr.Graph != g {
			t.Errorf("run %d: graph was rebuilt instead of shared", i)
		}
		if !rr.Res.AllAwake {
			t.Errorf("run %d: not all awake", i)
		}
	}
}

// TestRunnerErrorIsDeterministic: the reported error is the first failing
// run by input position, not by completion order.
func TestRunnerErrorIsDeterministic(t *testing.T) {
	specs := []RunSpec{
		{Graph: "cycle:8", Algorithm: "flood"},
		{Graph: "cycle:8", Algorithm: "no-such-algorithm"},
		{Graph: "bad-spec", Algorithm: "flood"},
	}
	var msgs []string
	for _, workers := range []int{1, 3} {
		_, err := Runner{Workers: workers, MasterSeed: 1}.Run(specs)
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error depends on worker count: %q vs %q", msgs[0], msgs[1])
	}
	if want := `experiment: run 1 (no-such-algorithm on "cycle:8"): `; !strings.HasPrefix(msgs[0], want) {
		t.Errorf("error %q, want prefix %q", msgs[0], want)
	}
	// A pre-built graph without a spec string is named by its size.
	_, err := Runner{Workers: 1}.Run([]RunSpec{{G: graph.Star(4), Algorithm: "no-such-algorithm"}})
	if want := "experiment: run 0 (no-such-algorithm on n=4 m=3): "; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("pre-built graph: err = %v, want prefix %q", err, want)
	}
}

// renderObservability aggregates the observability outputs into the exact
// bytes a metrics-enabled sweep would write: one JSON snapshot line plus
// the frontier series per run. Durations are deliberately absent — wall
// time is never part of deterministic output.
func renderObservability(t *testing.T, results []RunResult) string {
	t.Helper()
	var buf strings.Builder
	for i, rr := range results {
		if rr.Metrics == nil || len(rr.Frontier) == 0 {
			t.Fatalf("run %d: missing metrics (%v) or frontier (%d points)", i, rr.Metrics == nil, len(rr.Frontier))
		}
		snap, err := json.Marshal(rr.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s\n", snap)
		frontier, err := json.Marshal(rr.Frontier)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "frontier %s\n", frontier)
	}
	return buf.String()
}

// TestRunnerObservabilityDeterministicAcrossWorkers extends the harness's
// byte-identity guarantee to the observability outputs: metric snapshots
// and frontier series agree at every worker count.
func TestRunnerObservabilityDeterministicAcrossWorkers(t *testing.T) {
	specs := testMatrix(2)
	for i := range specs {
		specs[i].Metrics = true
	}
	want, err := Runner{Workers: 1, MasterSeed: 11}.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := renderObservability(t, want)
	for _, workers := range []int{2, runtime.NumCPU()} {
		got, err := Runner{Workers: workers, MasterSeed: 11}.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		if gotOut := renderObservability(t, got); gotOut != wantOut {
			t.Errorf("workers=%d observability output differs from sequential:\n--- sequential\n%s--- parallel\n%s",
				workers, wantOut, gotOut)
		}
	}
}

// TestRunnerProgress: the callback fires once per run, serialized, with a
// monotonically increasing completed count reaching the total.
func TestRunnerProgress(t *testing.T) {
	specs := testMatrix(2)
	var calls []int
	r := Runner{
		Workers:    3,
		MasterSeed: 5,
		Progress: func(done, total int, r RunResult) {
			if total != len(specs) {
				t.Errorf("progress total = %d, want %d", total, len(specs))
			}
			if r.Res == nil || !r.Res.AllAwake {
				t.Errorf("progress call %d delivered an incomplete result", done)
			}
			calls = append(calls, done) // serialized by the Runner; no locking here
		},
	}
	if _, err := r.Run(specs); err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(specs) {
		t.Fatalf("progress fired %d times, want %d", len(calls), len(specs))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress call %d reported done=%d, want %d", i, done, i+1)
		}
	}
}

// TestRunnerDuration: an injected clock yields positive durations; without
// one, durations stay zero and the deterministic outputs carry no trace of
// wall time.
func TestRunnerDuration(t *testing.T) {
	specs := testMatrix(1)
	var mu sync.Mutex
	tick := int64(0)
	r := Runner{
		Workers:    2,
		MasterSeed: 5,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			tick++
			return time.Unix(0, tick*int64(time.Millisecond))
		},
	}
	results, err := r.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range results {
		if rr.Duration <= 0 {
			t.Errorf("run %d: duration %v, want > 0 under an injected clock", i, rr.Duration)
		}
	}
	bare, err := Runner{Workers: 2, MasterSeed: 5}.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range bare {
		if rr.Duration != 0 {
			t.Errorf("run %d: duration %v without a clock, want 0", i, rr.Duration)
		}
	}
}

// TestRunnerReuseMatchesDirectRuns pins the Runner's reuse machinery
// (shared Prepared per topology, per-worker recycled engines) against
// ground truth with no reuse at all: a direct riseandshine.Run per cell.
// Cacheable cells (pre-built graph, identity ports, an advice scheme so
// the oracle actually gets shared) must come out byte-identical at every
// worker count, digests included.
func TestRunnerReuseMatchesDirectRuns(t *testing.T) {
	g := riseandshine.RandomConnected(50, 0.1, 13)
	cell := RunSpec{G: g, Algorithm: "cen", Delays: "random", RecordDigests: true}
	specs := make([]RunSpec, 12)
	for i := range specs {
		specs[i] = cell
	}
	master := int64(77)

	marshal := func(res *sim.Result) string {
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	want := make([]string, len(specs))
	for i := range specs {
		seed := sim.RunSeed(master, i)
		delays, err := ParseDelays(cell.Delays, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := riseandshine.Run(riseandshine.RunConfig{
			Graph:     g,
			Algorithm: cell.Algorithm,
			Schedule:  riseandshine.WakeSet{Nodes: []int{0}},
			Delays:    delays,
			Seed:      seed,
			Observer:  riseandshine.NewDigestObserver(false),
		})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = marshal(res)
	}

	for _, workers := range []int{1, 4} {
		results, err := Runner{Workers: workers, MasterSeed: master}.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, rr := range results {
			if got := marshal(rr.Res); got != want[i] {
				t.Fatalf("workers=%d run %d: reused result differs from direct run\ndirect: %s\nrunner: %s",
					workers, i, want[i], got)
			}
			if len(rr.Res.TranscriptDigests) == 0 {
				t.Fatalf("workers=%d run %d: digests missing", workers, i)
			}
		}
	}
}
