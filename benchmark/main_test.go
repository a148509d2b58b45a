package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite expect.json from one pass of every workload at the default seed")

// tiny is a miniature flood-1e6 that TestOutputContract runs through the
// command.
const tiny = "tiny"

// TestMain also serves the command's set-up and per-pass processes: a run
// re-executes its own binary with --setup or --pass, which under test is
// this test binary.
func TestMain(m *testing.M) {
	workloads[tiny] = workload{shards: 2, reference: bfsReference, setup: floodSetup(floodSpec{
		name: tiny, graph: "binary:1023", schedule: "single", delays: "random:0.25", shards: 2, cells: 2,
	})}
	for _, arg := range os.Args[1:] {
		if arg == "--pass" || arg == "--setup" {
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// small are miniature versions of the three workloads: the same code paths
// (Runner cells, report columns, lowerbound.Run, the sharded engine) on
// inputs that run in well under a second.
var small = map[string]workload{
	"table1": {setup: func(seed int64) (plan, time.Duration, error) {
		return setupTable1(seed, table1Rows([]int{32, 64}, []int{32, 64}), []int{2, 3})
	}},
	"flood-dense": {setup: floodSetup(floodSpec{name: "flood-dense", graph: "complete:40", schedule: "all", delays: "random", cells: 2})},
	"flood-1e6":   {shards: 2, setup: floodSetup(floodSpec{name: "flood-1e6", graph: "binary:4095", schedule: "single", delays: "random:0.25", shards: 2, cells: 3})},
}

func setUp(t *testing.T, w workload, seed int64) plan {
	t.Helper()
	p, _, err := w.setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fingerprints runs one pass of w at seed and returns every cell's
// fingerprint, failing the test on any output-check failure.
func fingerprints(t *testing.T, w workload, seed int64, traced bool) map[string]string {
	t.Helper()
	o := outcome(setUp(t, w, seed).run(traced), w.shards)
	checks := newTally(nil)
	checks.check(o)
	if checks.failed != 0 {
		for _, c := range o.Cells {
			if len(c.Fails) > 0 {
				t.Errorf("seed %d: %s failed %v", seed, c.Label, c.Fails)
			}
		}
		t.FailNow()
	}
	return checks.first
}

func TestPassesReproduce(t *testing.T) {
	for name, w := range small {
		t.Run(name, func(t *testing.T) {
			untraced := fingerprints(t, w, defaultSeed, false)
			again := fingerprints(t, w, defaultSeed, false)
			traced := fingerprints(t, w, defaultSeed, true)
			for label, fp := range untraced {
				if again[label] != fp || traced[label] != fp {
					t.Errorf("%s: fingerprints %s, then %s, traced %s", label, fp, again[label], traced[label])
				}
			}
		})
	}
}

func TestSecondSeedDiffers(t *testing.T) {
	for name, w := range small {
		t.Run(name, func(t *testing.T) {
			one := fingerprints(t, w, defaultSeed, false)
			two := fingerprints(t, w, defaultSeed+1, false)
			if len(one) != len(two) {
				t.Fatalf("seed changed the cells: %d vs %d", len(one), len(two))
			}
			for label, fp := range one {
				// Every center broadcasts at time 0 over unit delays, so
				// center-broadcast's Result does not depend on the seed,
				// which only permutes IDs and ports.
				if two[label] == fp && !strings.HasSuffix(label, "/center-broadcast") {
					t.Errorf("%s: same fingerprint %s on both seeds", label, fp)
				}
			}
		})
	}
}

func TestCorruptExpectationFails(t *testing.T) {
	w := small["flood-1e6"]
	o := outcome(setUp(t, w, defaultSeed).run(false), w.shards)
	expect := fingerprints(t, w, defaultSeed, false)
	checks := newTally(expect)
	checks.check(o)
	if checks.failed != 0 {
		t.Fatalf("true expectation: %d cells failed: %v", checks.failed, checks.counts)
	}
	expect["flood-1e6/1"] = "0123456789abcdef"
	delete(expect, "flood-1e6/2")
	checks = newTally(expect)
	checks.check(o)
	if got := checks.counts[failFingerprint]; got != 2 || checks.failed != 2 {
		t.Fatalf("corrupted and missing expectation: fail.fingerprint = %d, failed = %d; want 2 and 2", got, checks.failed)
	}
}

func TestFloodInvariants(t *testing.T) {
	for _, name := range []string{"flood-dense", "flood-1e6"} {
		w := small[name]
		pass := setUp(t, w, defaultSeed).run(true)
		for _, c := range pass.cells {
			r := c.res
			wakes := len(r.AwakeSet())
			if r.Messages != 2*r.M || r.Events != wakes+2*r.M {
				t.Errorf("%s: messages %d, events %d; want 2m = %d and %d wakes + 2m", c.label, r.Messages, r.Events, 2*r.M, wakes)
			}
			if fails := c.failures(true, w.shards); len(fails) != 0 {
				t.Errorf("%s: failed %v", c.label, fails)
			}
			r.Messages++
			if fails := c.failures(false, w.shards); len(fails) != 1 || fails[0] != failFlood {
				t.Errorf("%s with one extra message: failed %v, want [%s]", c.label, fails, failFlood)
			}
		}
	}
}

// TestReferences checks that each reference is a fixed computation — two
// fresh copies return the same checksums step by step — and that a gauge
// times bursts and yields a positive scale.
func TestReferences(t *testing.T) {
	for name, w := range workloads {
		a, b := w.reference(), w.reference()
		for i := 0; i < 5; i++ {
			if x, y := a.step(), b.step(); x != y {
				t.Fatalf("%s: step %d gave %d and %d", name, i, x, y)
			}
		}
	}
	r := bfsReference()
	g := r.start()
	time.Sleep(5 * gaugePeriod)
	if s := g.scale(); g.bursts == 0 || s <= 0 || s == 1 {
		t.Errorf("gauge timed %d bursts, scale %v", g.bursts, s)
	}
}

// TestOutputContract runs the command on a miniature workload and checks
// the last line: exactly the four keys, and every metric of the run's kind
// with its unit.
func TestOutputContract(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out, log bytes.Buffer
		if err := run([]string{"--workload", tiny, "--seed", "3", "--seconds", "1", "--trace", trace}, &out, &log); err != nil {
			t.Fatalf("%v\n%s", err, log.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if !strings.HasPrefix(lines[0], "env {") || !strings.Contains(lines[0], `"seed":3`) {
			t.Errorf("first line %q does not record the environment", lines[0])
		}
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Fatalf("last line keys: %s", lines[len(lines)-1])
		}
		var res struct {
			Correct bool
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if !res.Correct || len(res.Metrics) != len(defs) {
			t.Fatalf("trace %s: correct %v, %d metrics, want %d", trace, res.Correct, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
			}
		}
		if trace == "1" && (res.Metrics["shard.windows"].Value == 0 || res.Metrics["engine.events"].Value == 0) {
			t.Errorf("traced run reports no sharded work: %+v", res.Metrics)
		}
	}
	if err := run([]string{"--workload", "no-such"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json at the repository root to the
// metrics this command prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Name == tiny {
			t.Errorf("BENCHMARK.json names workload %q, which the command lacks", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads)-1)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", c.kind, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestExpectations runs one pass of every full-size workload at the default
// seed against expect.json; -update rewrites the file instead.
func TestExpectations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	e := expectation{Seed: defaultSeed, Fingerprints: make(map[string]map[string]string)}
	for name, w := range workloads {
		if name == tiny {
			continue
		}
		want, err := expected(name, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			want = nil
		}
		checks := newTally(want)
		checks.check(outcome(setUp(t, w, defaultSeed).run(false), w.shards))
		if checks.failed != 0 {
			t.Errorf("%s: %d of %d cells failed: %v", name, checks.failed, checks.attempted, checks.counts)
		}
		e.Fingerprints[name] = checks.first
	}
	if !*update {
		return
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("expect.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
