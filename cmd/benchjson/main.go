// Command benchjson converts `go test -bench` output into a stable JSON
// document, so benchmark runs can be committed, diffed, and compared across
// revisions without parsing free-form benchmark text.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkRunAsync -benchmem -count 5 . | go run ./cmd/benchjson -o BENCH.json
//	go run ./cmd/benchjson -baseline OLD.json -o NEW.json < bench.txt
//
// Input is the standard benchmark line format:
//
//	BenchmarkRunAsync/complete:2000-8  3  4179039495 ns/op  957158 events/s  1764694672 B/op  8044 allocs/op
//
// Each benchmark is keyed by its package (the latest `pkg:` header line)
// and its name with the -GOMAXPROCS suffix stripped; the suffix is
// recorded as gomaxprocs (go test omits it at 1). The lines of one
// benchmark — the samples of -count N — are aggregated: ns_per_op is the
// median sample, with ns_per_op_min and ns_per_op_max as its spread and
// every sample in input order in ns_per_op_samples, and B/op, allocs/op
// and every custom metric (b.ReportMetric units such as events/s, in the
// metrics map) are medians too. Lines that are not benchmark results are
// ignored, so raw `go test` output can be piped in unfiltered. With
// -baseline, each benchmark whose name is present in the baseline file
// gains a baseline block and a speedup factor (old median ns/op ÷ new
// median ns/op) and, when both files carry ns/op samples, p_value: the
// two-sided Mann–Whitney U test of the two sample sets (exact up to 20
// samples in all, the normal approximation above). Artifacts written
// before the samples were kept get no p-value.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is the aggregate of one benchmark's result lines.
type Benchmark struct {
	Name       string `json:"name"`
	Pkg        string `json:"pkg,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	// Samples is the number of result lines (-count); Iterations sums
	// their b.N.
	Samples    int     `json:"samples,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	NsPerOpMin float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax float64 `json:"ns_per_op_max,omitempty"`
	// NsPerOpSamples is every sample's ns/op, in input order.
	NsPerOpSamples []float64          `json:"ns_per_op_samples,omitempty"`
	BytesPerOp     float64            `json:"b_per_op,omitempty"`
	AllocsPerOp    float64            `json:"allocs_per_op,omitempty"`
	Metrics        map[string]float64 `json:"metrics,omitempty"`

	Baseline *Baseline `json:"baseline,omitempty"`
	// Speedup is baseline ns/op divided by this run's ns/op (>1 is faster).
	Speedup float64 `json:"speedup,omitempty"`
	// PValue is the two-sided Mann–Whitney U test p-value of this run's
	// ns/op samples against the baseline's; nil when either lacks samples.
	PValue *float64 `json:"p_value,omitempty"`
}

// Baseline carries the comparison numbers of an earlier run.
type Baseline struct {
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_per_op_max,omitempty"`
	BytesPerOp  float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	// Context lines (goos/goarch/cpu) from the benchmark header.
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

// result is one parsed benchmark result line.
type result struct {
	name    string
	procs   int
	iters   int64
	values  map[string]float64 // by unit: ns/op, B/op, allocs/op, custom
	ordered []string           // units in line order
}

// splitProcs separates the trailing -N GOMAXPROCS suffix go test appends
// to benchmark names, so names compare across machines. Without a suffix
// GOMAXPROCS was 1.
func splitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

// parseLine parses one benchmark result line; ok is false for any other
// line (headers, PASS, test logs).
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	s := result{iters: iters, values: make(map[string]float64)}
	s.name, s.procs = splitProcs(fields[0])
	// The remainder is `value unit` pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		unit := fields[i+1]
		if _, dup := s.values[unit]; !dup {
			s.ordered = append(s.ordered, unit)
		}
		s.values[unit] = val
	}
	return s, s.values["ns/op"] > 0
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// aggregate folds the samples of one benchmark into its entry.
func aggregate(pkg string, samples []result) Benchmark {
	first := samples[0]
	bm := Benchmark{Name: first.name, Pkg: pkg, GOMAXPROCS: first.procs, Samples: len(samples)}
	byUnit := make(map[string][]float64)
	var units []string
	for _, s := range samples {
		bm.Iterations += s.iters
		for _, unit := range s.ordered {
			if _, seen := byUnit[unit]; !seen {
				units = append(units, unit)
			}
			byUnit[unit] = append(byUnit[unit], s.values[unit])
		}
	}
	for _, unit := range units {
		xs := byUnit[unit]
		if unit == "ns/op" {
			bm.NsPerOpSamples = append([]float64(nil), xs...)
		}
		switch m := median(xs); unit {
		case "ns/op":
			bm.NsPerOp, bm.NsPerOpMin, bm.NsPerOpMax = m, xs[0], xs[len(xs)-1]
		case "B/op":
			bm.BytesPerOp = m
		case "allocs/op":
			bm.AllocsPerOp = m
		default:
			if bm.Metrics == nil {
				bm.Metrics = make(map[string]float64)
			}
			bm.Metrics[unit] = m
		}
	}
	return bm
}

// parse reads benchmark output and aggregates the samples of each
// (package, name, GOMAXPROCS) benchmark, sorted by name, then package.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Context: make(map[string]string)}
	type key struct {
		pkg, name string
		procs     int
	}
	groups := make(map[key][]result)
	var order []key
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = v
			continue
		}
		for _, k := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, k+": "); ok {
				rep.Context[k] = v
			}
		}
		s, ok := parseLine(line)
		if !ok {
			continue
		}
		k := key{pkg, s.name, s.procs}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, k := range order {
		rep.Benchmarks = append(rep.Benchmarks, aggregate(k.pkg, groups[k]))
	}
	sort.SliceStable(rep.Benchmarks, func(i, j int) bool {
		a, b := rep.Benchmarks[i], rep.Benchmarks[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Pkg < b.Pkg
	})
	return rep, nil
}

// applyBaseline attaches baseline numbers and speedups by benchmark name.
func applyBaseline(rep *Report, baselinePath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var old Report
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	byName := make(map[string]Benchmark, len(old.Benchmarks))
	for _, bm := range old.Benchmarks {
		byName[bm.Name] = bm
	}
	for i := range rep.Benchmarks {
		bm := &rep.Benchmarks[i]
		prev, ok := byName[bm.Name]
		if !ok {
			continue
		}
		bm.Baseline = &Baseline{
			NsPerOp:     prev.NsPerOp,
			NsPerOpMin:  prev.NsPerOpMin,
			NsPerOpMax:  prev.NsPerOpMax,
			BytesPerOp:  prev.BytesPerOp,
			AllocsPerOp: prev.AllocsPerOp,
		}
		if bm.NsPerOp > 0 {
			bm.Speedup = prev.NsPerOp / bm.NsPerOp
		}
		if len(prev.NsPerOpSamples) > 0 && len(bm.NsPerOpSamples) > 0 {
			p := mannWhitneyP(prev.NsPerOpSamples, bm.NsPerOpSamples)
			bm.PValue = &p
		}
	}
	return nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline benchjson file to compare against")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	if *baseline != "" {
		if err := applyBaseline(rep, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
