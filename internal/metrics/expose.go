package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"riseandshine/internal/stats"
)

// Snapshot is a point-in-time copy of a set of metrics, ordered by metric
// name within each kind. Its JSON encoding is deterministic: field order is
// fixed by the struct layout, slices are sorted by name, and floats render
// through strconv's shortest form, which is host-independent — the basis
// of the harness's byte-identical metrics records.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// CounterSnapshot is one counter's value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnapshot is one gauge's value.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnapshot is one histogram's distribution. Buckets lists only
// the non-empty buckets, in increasing exponent order, with per-bucket
// (not cumulative) counts.
type HistogramSnapshot struct {
	Name    string           `json:"name"`
	Count   uint64           `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets []BucketSnapshot `json:"buckets"`
}

// BucketSnapshot is one non-empty histogram bucket: the bucket covers
// (2^(Exp-1), 2^Exp], with Exp = maxExp+1 denoting the +Inf overflow
// bucket (see UpperBound).
type BucketSnapshot struct {
	Exp   int    `json:"exp"`
	Count uint64 `json:"count"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the log-bucketed
// distribution via stats.BucketQuantile: linear interpolation inside the
// bucket containing the quantile rank. It returns NaN on an empty
// histogram; ranks falling in the overflow bucket report the bucket's
// lower bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if len(h.Buckets) == 0 {
		return math.NaN()
	}
	// Buckets lists only non-empty buckets, but each exponent pins the
	// bucket's true bounds; insert zero-count markers at the lower bound of
	// every bucket (including the first) so interpolation never stretches
	// across a gap of empty buckets.
	bounds := make([]float64, 0, 2*len(h.Buckets))
	counts := make([]uint64, 0, 2*len(h.Buckets))
	prevExp := h.Buckets[0].Exp - 1
	bounds = append(bounds, UpperBound(prevExp))
	counts = append(counts, 0)
	for _, b := range h.Buckets {
		if b.Exp-1 > prevExp {
			bounds = append(bounds, UpperBound(b.Exp-1))
			counts = append(counts, 0)
		}
		bounds = append(bounds, UpperBound(b.Exp))
		counts = append(counts, b.Count)
		prevExp = b.Exp
	}
	return stats.BucketQuantile(q, bounds, counts)
}

func (c CounterSnapshot) key() string   { return c.Name }
func (g GaugeSnapshot) key() string     { return g.Name }
func (h HistogramSnapshot) key() string { return h.Name }

// slot returns the element of the name-sorted list *l named like zero,
// first inserting zero in name order when the list has no such element.
func slot[T interface{ key() string }](l *[]T, zero T) *T {
	i, ok := slices.BinarySearchFunc(*l, zero.key(), func(e T, name string) int {
		return strings.Compare(e.key(), name)
	})
	if !ok {
		*l = slices.Insert(*l, i, zero)
	}
	return &(*l)[i]
}

// Merge folds o into s: counter values add, gauge values overwrite, and
// histogram buckets, counts and sums add. A metric s lacks is inserted in
// name order. A sweep driver uses this to aggregate per-run snapshots into
// the live snapshot behind its /metrics endpoint.
func (s *Snapshot) Merge(o Snapshot) {
	for _, c := range o.Counters {
		slot(&s.Counters, CounterSnapshot{Name: c.Name}).Value += c.Value
	}
	for _, g := range o.Gauges {
		*slot(&s.Gauges, GaugeSnapshot{Name: g.Name}) = g
	}
	for _, h := range o.Histograms {
		dst := slot(&s.Histograms, HistogramSnapshot{Name: h.Name})
		var sum Histogram
		sum.add(*dst)
		sum.add(h)
		*dst = sum.Snapshot(h.Name)
	}
}

// fmtFloat renders a float in Prometheus exposition form.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4), every metric in name order: a HELP line for the
// names in the package's help table, a TYPE line, plain samples for
// counters and gauges, and cumulative le-labelled buckets plus _sum and
// _count series for histograms.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	type family struct{ name, kind, samples string }
	var all []family
	for _, c := range s.Counters {
		all = append(all, family{c.Name, "counter", fmt.Sprintf("%s %d\n", c.Name, c.Value)})
	}
	for _, g := range s.Gauges {
		all = append(all, family{g.Name, "gauge", fmt.Sprintf("%s %s\n", g.Name, fmtFloat(g.Value))})
	}
	for _, h := range s.Histograms {
		var b strings.Builder
		var cum uint64
		for _, bk := range h.Buckets {
			cum += bk.Count
			if bk.Exp <= maxExp { // the overflow bucket is the le="+Inf" line below
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", h.Name, fmtFloat(UpperBound(bk.Exp)), cum)
			}
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			h.Name, cum, h.Name, fmtFloat(h.Sum), h.Name, h.Count)
		all = append(all, family{h.Name, "histogram", b.String()})
	}
	slices.SortFunc(all, func(a, b family) int { return strings.Compare(a.name, b.name) })
	var b strings.Builder
	for _, f := range all {
		if text := help[f.name]; text != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, text)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n%s", f.name, f.kind, f.samples)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
