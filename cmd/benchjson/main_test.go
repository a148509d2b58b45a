package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: riseandshine
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRunAsync/complete:2000-8         	       3	4179039495 ns/op	    957158 events/s	1764694672 B/op	    8044 allocs/op
BenchmarkRunAsync/torus:64x64-8           	       3	  50193192 ns/op	    408032 events/s	25111440 B/op	   16409 allocs/op
some test log line
PASS
ok  	riseandshine	61.088s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Context["goarch"]; got != "amd64" {
		t.Errorf("goarch = %q", got)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	bm := rep.Benchmarks[0]
	if bm.Name != "BenchmarkRunAsync/complete:2000" {
		t.Errorf("name = %q (cpu suffix should be stripped)", bm.Name)
	}
	if bm.Pkg != "riseandshine" || bm.GOMAXPROCS != 8 || bm.Samples != 1 {
		t.Errorf("pkg/gomaxprocs/samples = %q/%d/%d, want riseandshine/8/1", bm.Pkg, bm.GOMAXPROCS, bm.Samples)
	}
	if bm.Iterations != 3 || bm.NsPerOp != 4179039495 || bm.BytesPerOp != 1764694672 || bm.AllocsPerOp != 8044 {
		t.Errorf("standard fields wrong: %+v", bm)
	}
	if bm.NsPerOpMin != bm.NsPerOp || bm.NsPerOpMax != bm.NsPerOp {
		t.Errorf("one sample: spread %v..%v, want %v", bm.NsPerOpMin, bm.NsPerOpMax, bm.NsPerOp)
	}
	if bm.Metrics["events/s"] != 957158 {
		t.Errorf("custom metric events/s = %v", bm.Metrics["events/s"])
	}
}

// TestParseAggregatesRepetitions: the lines of -count N fold into a median
// with its min and max, per package, and GOMAXPROCS comes from the name
// suffix (absent at 1).
func TestParseAggregatesRepetitions(t *testing.T) {
	input := `pkg: riseandshine/internal/graph
BenchmarkX-8 2 100 ns/op 10 B/op 7 w/op
BenchmarkX-8 2 90 ns/op 30 B/op 5 w/op
BenchmarkX-8 4 130 ns/op 20 B/op 6 w/op
BenchmarkY 1 50 ns/op
pkg: riseandshine
BenchmarkZ-2 1 40 ns/op
BenchmarkZ-2 1 60 ns/op
`
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("want 3 aggregated benchmarks, got %+v", rep.Benchmarks)
	}
	x, y, z := rep.Benchmarks[0], rep.Benchmarks[1], rep.Benchmarks[2]
	if x.Samples != 3 || x.Iterations != 8 || x.NsPerOp != 100 || x.NsPerOpMin != 90 || x.NsPerOpMax != 130 {
		t.Errorf("X: samples=%d iterations=%d ns/op=%v [%v, %v], want 3 8 100 [90, 130]",
			x.Samples, x.Iterations, x.NsPerOp, x.NsPerOpMin, x.NsPerOpMax)
	}
	if x.BytesPerOp != 20 || x.Metrics["w/op"] != 6 {
		t.Errorf("X: B/op=%v w/op=%v, want medians 20 and 6", x.BytesPerOp, x.Metrics["w/op"])
	}
	if x.Pkg != "riseandshine/internal/graph" || x.GOMAXPROCS != 8 {
		t.Errorf("X: pkg=%q gomaxprocs=%d", x.Pkg, x.GOMAXPROCS)
	}
	if y.Pkg != "riseandshine/internal/graph" || y.GOMAXPROCS != 1 {
		t.Errorf("Y: pkg=%q gomaxprocs=%d, want the graph package at 1", y.Pkg, y.GOMAXPROCS)
	}
	if z.Pkg != "riseandshine" || z.GOMAXPROCS != 2 || z.NsPerOp != 50 {
		t.Errorf("Z: pkg=%q gomaxprocs=%d ns/op=%v, want riseandshine, 2, median 50 of two samples", z.Pkg, z.GOMAXPROCS, z.NsPerOp)
	}
}

func TestApplyBaseline(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base.json")
	old := `{"benchmarks":[{"name":"BenchmarkRunAsync/complete:2000","iterations":3,"ns_per_op":8358078990,"ns_per_op_min":8e9,"ns_per_op_max":9e9,"b_per_op":2436639472,"allocs_per_op":12008039}]}`
	if err := os.WriteFile(base, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := applyBaseline(rep, base); err != nil {
		t.Fatal(err)
	}
	bm := rep.Benchmarks[0]
	if bm.Baseline == nil || bm.Baseline.NsPerOp != 8358078990 {
		t.Fatalf("baseline not attached: %+v", bm)
	}
	if bm.Baseline.NsPerOpMin != 8e9 || bm.Baseline.NsPerOpMax != 9e9 {
		t.Errorf("baseline spread = [%v, %v], want [8e9, 9e9]", bm.Baseline.NsPerOpMin, bm.Baseline.NsPerOpMax)
	}
	if bm.Speedup < 1.99 || bm.Speedup > 2.01 {
		t.Errorf("speedup = %v, want ~2.0", bm.Speedup)
	}
	if rep.Benchmarks[1].Baseline != nil {
		t.Error("benchmark missing from baseline should have no baseline block")
	}
}
