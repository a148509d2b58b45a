package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMannWhitneyExact pins the exact small-sample p-values: fully
// separated 5-sample sets reach the smallest two-sided p, 2/C(10,5);
// identical sets give 1; and swapping the sides changes nothing.
func TestMannWhitneyExact(t *testing.T) {
	lo := []float64{10, 11, 12, 13, 14}
	hi := []float64{20, 21, 22, 23, 24}
	cases := []struct {
		name string
		x, y []float64
		want float64
	}{
		{"separated", lo, hi, 2.0 / 252},
		{"identical", lo, lo, 1},
		// U = 10 of 25, and 87 of the 252 rank assignments have U ≤ 10.
		{"interleaved", []float64{1, 3, 5, 7, 9}, []float64{2, 4, 6, 8, 10}, 2.0 * 87 / 252},
		// Ties: the exact distribution runs over the mid-ranks; 10 of the
		// 252 subsets of mid-ranks sum to 18 or less.
		{"tied", []float64{1, 1, 2, 2, 3}, []float64{2, 3, 3, 4, 4}, 2.0 * 10 / 252},
	}
	for _, c := range cases {
		p, swapped := mannWhitneyP(c.x, c.y), mannWhitneyP(c.y, c.x)
		if p != swapped {
			t.Errorf("%s: p = %v, swapped %v", c.name, p, swapped)
		}
		if math.Abs(p-c.want) > 1e-15 {
			t.Errorf("%s: p = %v, want %v", c.name, p, c.want)
		}
	}
}

// TestMannWhitneyNormal covers the large-sample branch: separated sets
// are significant, identical ones are not, ties are corrected for, and
// the side order does not matter.
func TestMannWhitneyNormal(t *testing.T) {
	var a, b, ties []float64
	for i := 0; i < 15; i++ {
		a = append(a, float64(100+i))
		b = append(b, float64(200+i))
		ties = append(ties, float64(100+i%3))
	}
	if p := mannWhitneyP(a, b); p > 1e-5 || p != mannWhitneyP(b, a) {
		t.Errorf("separated 15 vs 15: p = %v, swapped %v; want below 1e-5 and equal", p, mannWhitneyP(b, a))
	}
	if p := mannWhitneyP(a, a); p != 1 {
		t.Errorf("identical 15 vs 15: p = %v, want 1", p)
	}
	if p := mannWhitneyP(ties, ties); p != 1 {
		t.Errorf("identical tied sets: p = %v, want 1", p)
	}
	if p := mannWhitneyP([]float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}); p != 1 {
		t.Errorf("all equal: p = %v, want 1", p)
	}
}

// TestApplyBaselinePValue: a p-value appears only when both artifacts
// carry ns/op samples, and parse keeps them in input order.
func TestApplyBaselinePValue(t *testing.T) {
	input := `BenchmarkX-2 1 24 ns/op
BenchmarkX-2 1 20 ns/op
BenchmarkX-2 1 22 ns/op
BenchmarkX-2 1 21 ns/op
BenchmarkX-2 1 23 ns/op
BenchmarkY-2 1 5 ns/op
`
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Benchmarks[0].NsPerOpSamples; len(got) != 5 || got[0] != 24 || got[4] != 23 {
		t.Fatalf("samples = %v, want the five in input order", got)
	}
	base := filepath.Join(t.TempDir(), "base.json")
	old := `{"benchmarks":[{"name":"BenchmarkX","iterations":5,"ns_per_op":12,"ns_per_op_samples":[10,11,12,13,14]},{"name":"BenchmarkY","iterations":1,"ns_per_op":6}]}`
	if err := os.WriteFile(base, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := applyBaseline(rep, base); err != nil {
		t.Fatal(err)
	}
	x, y := rep.Benchmarks[0], rep.Benchmarks[1]
	if x.PValue == nil || math.Abs(*x.PValue-2.0/252) > 1e-15 {
		t.Errorf("X: p_value = %v, want 2/252", x.PValue)
	}
	if y.Baseline == nil || y.PValue != nil {
		t.Errorf("Y: baseline %+v, p_value %v; want a baseline block and no p-value", y.Baseline, y.PValue)
	}
}
