// Package experiment contains shared plumbing for the command-line tools
// and the benchmark harness: graph/schedule specification parsing, seeded
// multi-run aggregation, and plain-text table rendering.
package experiment

import (
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// ParseGraph builds a graph from a compact spec string:
//
//	path:N | cycle:N | star:N | complete:N | bipartite:A:B | grid:RxC |
//	torus:RxC | hypercube:D | lollipop:K:TAIL | tree:N | binary:N |
//	gnp:N:P | connected:N:P | caterpillar:SPINE:LEGS | wheel:N |
//	kary:N:K | debruijn:D | regular:N:D | ba:N:M | file:PATH
//
// Random families take the given seed. Every argument is checked before
// the generator runs: a malformed or negative argument, a family's own
// precondition (cycle:N needs N ≥ 3, torus:RxC needs R, C ≥ 3, …) and a
// node or edge count beyond the graph's int32 index space
// (graph.CheckSize) are errors, not panics. For gnp and connected the
// edge count checked is twice the expected one, so the drawn count cannot
// realistically overflow.
func ParseGraph(spec string, seed int64) (*graph.Graph, error) {
	if kind, path, _ := strings.Cut(spec, ":"); kind == "file" {
		if path == "" {
			return nil, fmt.Errorf("experiment: graph spec %q: missing path", spec)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	}
	gs, err := parseGraphSpec(spec)
	if err != nil {
		return nil, err
	}
	return gs.family.build(gs.x, gs.y, gs.p, rand.New(rand.NewSource(seed))), nil
}

// graphSpec is a parsed and size-checked spec other than file:PATH.
type graphSpec struct {
	family       family
	x, y         int     // the integer arguments, in spec order
	p            float64 // the probability of gnp and connected
	nodes, edges int     // the checked sizes
}

// family is one graph kind of ParseGraph.
type family struct {
	// args is the argument form: "N" (one integer), "N:M" (two), "N:P"
	// (an integer and a probability) or "RxC".
	args string
	// size returns the node and edge counts the arguments ask for, or
	// why the generator would reject them. Arguments reach it checked
	// non-negative and below 2³¹, so its products cannot overflow.
	size  func(x, y int, p float64) (nodes, edges int, err error)
	build func(x, y int, p float64, rng *rand.Rand) *graph.Graph
}

// treeSize is the size of every tree family: n nodes, n−1 edges.
func treeSize(n, _ int, _ float64) (int, int, error) { return n, max(n-1, 0), nil }

// randomSize is the size gnp and connected are checked at: forced edges
// plus twice the expected number of the pairs left, each drawn with
// probability p.
func randomSize(n, forced int, p float64) (int, int, error) {
	pairs := float64(n) * float64(n-1) / 2
	return n, forced + int(math.Ceil(2*p*(pairs-float64(forced)))), nil
}

// powerOfTwo bounds the dimension of the 2^D-node families before the
// shift.
func powerOfTwo(d int) (int, error) {
	if d > 30 {
		return 0, fmt.Errorf("dimension %d gives more than 2^30 nodes", d)
	}
	return 1 << d, nil
}

var families = map[string]family{
	"path":   {"N", treeSize, func(n, _ int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Path(n) }},
	"star":   {"N", treeSize, func(n, _ int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Star(n) }},
	"binary": {"N", treeSize, func(n, _ int, _ float64, _ *rand.Rand) *graph.Graph { return graph.BinaryTree(n) }},
	"tree":   {"N", treeSize, func(n, _ int, _ float64, rng *rand.Rand) *graph.Graph { return graph.RandomTree(n, rng) }},
	"cycle": {"N", func(n, _ int, _ float64) (int, int, error) {
		if n < 3 {
			return 0, 0, fmt.Errorf("cycle needs N >= 3")
		}
		return n, n, nil
	}, func(n, _ int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Cycle(n) }},
	"wheel": {"N", func(n, _ int, _ float64) (int, int, error) {
		if n < 4 {
			return 0, 0, fmt.Errorf("wheel needs N >= 4")
		}
		return n, 2 * (n - 1), nil
	}, func(n, _ int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Wheel(n) }},
	"complete": {"N", func(n, _ int, _ float64) (int, int, error) {
		return n, n * (n - 1) / 2, nil
	}, func(n, _ int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Complete(n) }},
	"bipartite": {"N:M", func(a, b int, _ float64) (int, int, error) {
		return a + b, a * b, nil
	}, func(a, b int, _ float64, _ *rand.Rand) *graph.Graph { return graph.CompleteBipartite(a, b) }},
	"grid": {"RxC", func(r, c int, _ float64) (int, int, error) {
		if r == 0 || c == 0 {
			return 0, 0, nil
		}
		return r * c, r*(c-1) + c*(r-1), nil
	}, func(r, c int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Grid(r, c) }},
	"torus": {"RxC", func(r, c int, _ float64) (int, int, error) {
		if r < 3 || c < 3 {
			return 0, 0, fmt.Errorf("torus needs R, C >= 3")
		}
		return r * c, 2 * r * c, nil
	}, func(r, c int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Torus(r, c) }},
	"hypercube": {"N", func(d, _ int, _ float64) (int, int, error) {
		n, err := powerOfTwo(d)
		return n, d * n / 2, err
	}, func(d, _ int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Hypercube(d) }},
	"debruijn": {"N", func(d, _ int, _ float64) (int, int, error) {
		n, err := powerOfTwo(d)
		return n, 2 * n, err // at most two edges per node
	}, func(d, _ int, _ float64, _ *rand.Rand) *graph.Graph { return graph.DeBruijn(d) }},
	"lollipop": {"N:M", func(k, tail int, _ float64) (int, int, error) {
		if k < 1 {
			return 0, 0, fmt.Errorf("lollipop needs K >= 1")
		}
		return k + tail, k*(k-1)/2 + tail, nil
	}, func(k, tail int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Lollipop(k, tail) }},
	"caterpillar": {"N:M", func(spine, legs int, _ float64) (int, int, error) {
		if spine == 0 {
			return 0, 0, nil
		}
		return spine * (1 + legs), spine - 1 + spine*legs, nil
	}, func(spine, legs int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Caterpillar(spine, legs) }},
	"kary": {"N:M", func(n, k int, _ float64) (int, int, error) {
		if k < 1 {
			return 0, 0, fmt.Errorf("kary needs K >= 1")
		}
		return treeSize(n, 0, 0)
	}, func(n, k int, _ float64, _ *rand.Rand) *graph.Graph { return graph.KAryTree(n, k) }},
	"regular": {"N:M", func(n, d int, _ float64) (int, int, error) {
		if d >= n || n*d%2 != 0 {
			return 0, 0, fmt.Errorf("regular needs D < N and N·D even")
		}
		return n, n * d / 2, nil
	}, func(n, d int, _ float64, rng *rand.Rand) *graph.Graph { return graph.RandomRegular(n, d, rng) }},
	"ba": {"N:M", func(n, m int, _ float64) (int, int, error) {
		if m < 1 || m >= n {
			return 0, 0, fmt.Errorf("ba needs 1 <= M < N")
		}
		return n, m*(m+1)/2 + (n-m-1)*m, nil
	}, func(n, m int, _ float64, rng *rand.Rand) *graph.Graph { return graph.PreferentialAttachment(n, m, rng) }},
	"gnp": {"N:P", func(n, _ int, p float64) (int, int, error) {
		return randomSize(n, 0, p)
	}, func(n, _ int, p float64, rng *rand.Rand) *graph.Graph { return graph.RandomGNP(n, p, rng) }},
	"connected": {"N:P", func(n, _ int, p float64) (int, int, error) {
		return randomSize(n, max(n-1, 0), p)
	}, func(n, _ int, p float64, rng *rand.Rand) *graph.Graph { return graph.RandomConnected(n, p, rng) }},
}

// parseGraphSpec parses a spec other than file:PATH and checks its sizes.
func parseGraphSpec(spec string) (graphSpec, error) {
	parts := strings.Split(spec, ":")
	fam, ok := families[parts[0]]
	if !ok {
		return graphSpec{}, fmt.Errorf("experiment: unknown graph kind %q", parts[0])
	}
	gs := graphSpec{family: fam}
	fail := func(format string, a ...any) (graphSpec, error) {
		return graphSpec{}, fmt.Errorf("experiment: graph spec %q: %s", spec, fmt.Sprintf(format, a...))
	}
	args := parts[1:]
	if want := strings.Count(fam.args, ":") + 1; len(args) < want {
		return fail("missing argument %d (want %s:%s)", len(args)+1, parts[0], fam.args)
	}
	var err error
	switch fam.args {
	case "RxC":
		r, c, ok := strings.Cut(args[0], "x")
		if !ok {
			return fail("want RxC, got %q", args[0])
		}
		if gs.x, err = strconv.Atoi(r); err == nil {
			gs.y, err = strconv.Atoi(c)
		}
	case "N":
		gs.x, err = strconv.Atoi(args[0])
	case "N:M":
		if gs.x, err = strconv.Atoi(args[0]); err == nil {
			gs.y, err = strconv.Atoi(args[1])
		}
	case "N:P":
		if gs.x, err = strconv.Atoi(args[0]); err == nil {
			gs.p, err = strconv.ParseFloat(args[1], 64)
		}
		if err == nil && !(gs.p >= 0 && gs.p <= 1) {
			return fail("probability %v outside [0, 1]", gs.p)
		}
	}
	if err != nil {
		return fail("%v", err)
	}
	if gs.x < 0 || gs.y < 0 || gs.x > math.MaxInt32 || gs.y > math.MaxInt32 {
		return fail("arguments must be in [0, 2^31)")
	}
	if gs.nodes, gs.edges, err = fam.size(gs.x, gs.y, gs.p); err == nil {
		err = graph.CheckSize(gs.nodes, gs.edges)
	}
	if err != nil {
		return fail("%v", err)
	}
	return gs, nil
}

// ParseSchedule builds a wake schedule from a spec string:
//
//	single | single:V | all | dominating | random:K | random:K:WINDOW |
//	staggered:S1,S2,...:GAP
func ParseSchedule(spec string, seed int64) (sim.WakeScheduler, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "single":
		v := 0
		if len(parts) > 1 {
			var err error
			if v, err = strconv.Atoi(parts[1]); err != nil {
				return nil, err
			}
		}
		return sim.WakeSingle(v), nil
	case "all":
		return sim.WakeAll{}, nil
	case "dominating":
		return sim.DominatingWake{}, nil
	case "random":
		k := 1
		window := 0.0
		var err error
		if len(parts) > 1 {
			if k, err = strconv.Atoi(parts[1]); err != nil {
				return nil, err
			}
		}
		if len(parts) > 2 {
			if window, err = strconv.ParseFloat(parts[2], 64); err != nil {
				return nil, err
			}
		}
		return sim.RandomWake{Count: k, Window: sim.Time(window), Seed: seed}, nil
	case "staggered":
		if len(parts) < 3 {
			return nil, fmt.Errorf("experiment: staggered spec wants staggered:S1,S2,..:GAP")
		}
		var sizes []int
		for _, s := range strings.Split(parts[1], ",") {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, err
			}
			sizes = append(sizes, v)
		}
		gap, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, err
		}
		return sim.StaggeredWake{Sizes: sizes, Gap: sim.Time(gap), Seed: seed}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown schedule %q", parts[0])
	}
}

// ParseDelays builds a delay adversary from "unit", "random", or
// "random:MIN" (delays in (MIN, 1], MIN in [0, 1)).
func ParseDelays(spec string, seed int64) (sim.Delayer, error) {
	switch {
	case spec == "" || spec == "unit":
		return sim.UnitDelay{}, nil
	case spec == "random":
		return sim.RandomDelay{Seed: seed}, nil
	case strings.HasPrefix(spec, "random:"):
		min, err := strconv.ParseFloat(spec[len("random:"):], 64)
		if err != nil {
			return nil, fmt.Errorf("experiment: delay spec %q: %w", spec, err)
		}
		if math.IsNaN(min) || min < 0 || min >= 1 {
			return nil, fmt.Errorf("experiment: delay spec %q: MIN must be in [0, 1)", spec)
		}
		return sim.RandomDelay{Seed: seed, Min: min}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown delay strategy %q", spec)
	}
}

// ParseQueue selects an event-queue implementation from "heap" (or empty)
// or "calendar". Every kind yields byte-identical Results; the choice is
// purely a performance knob.
func ParseQueue(spec string) (sim.QueueKind, error) {
	switch spec {
	case "", "heap":
		return sim.QueueHeap, nil
	case "calendar":
		return sim.QueueCalendar, nil
	default:
		return 0, fmt.Errorf("experiment: unknown queue kind %q (want heap or calendar)", spec)
	}
}

// Table renders rows as a fixed-width plain-text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends one row; values are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', 4, 64)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteCSV writes the table as a CSV file, creating parent directories as
// needed. Cells containing commas or quotes are quoted. The error from
// closing the file is reported: a full disk surfaces as a failure instead
// of a silently truncated CSV.
func (t *Table) WriteCSV(path string) (err error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("experiment: %w", cerr)
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
