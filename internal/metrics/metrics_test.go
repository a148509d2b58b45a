package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestBucketExp: bucket boundaries — exponent e covers (2^(e-1), 2^e],
// exact powers of two fall into the bucket they bound, and out-of-range
// observations collapse into the first or overflow bucket.
func TestBucketExp(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, minExp},
		{-5, minExp},
		{math.Ldexp(1, minExp), minExp},
		{math.Ldexp(1, minExp) * 1.001, minExp + 1},
		{0.75, 0},
		{1, 0},
		{1.0001, 1},
		{1.5, 1},
		{2, 1},
		{2.0001, 2},
		{1024, 10},
		{math.Ldexp(1, maxExp), maxExp},
		{math.Ldexp(1, maxExp) * 1.001, maxExp + 1},
		{math.Inf(1), maxExp + 1},
		{math.NaN(), maxExp + 1},
	}
	for _, c := range cases {
		if got := bucketExp(c.v); got != c.want {
			t.Errorf("bucketExp(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// The defining invariant, on a sweep of in-range values.
	for _, v := range []float64{0.001, 0.3, 1, 3, 7.99, 8, 8.01, 1e6, 1e12} {
		e := bucketExp(v)
		if v > UpperBound(e) || (e > minExp && v <= UpperBound(e-1)) {
			t.Errorf("bucketExp(%g) = %d: %g outside (%g, %g]", v, e, v, UpperBound(e-1), UpperBound(e))
		}
	}
	if !math.IsInf(UpperBound(maxExp+1), 1) {
		t.Error("UpperBound(overflow) should be +Inf")
	}
}

// TestSnapshotDeterministic: merging snapshots keeps every kind in name
// order, so merging the same snapshots in either order encodes to the same
// JSON bytes.
func TestSnapshotDeterministic(t *testing.T) {
	var h Histogram
	h.Observe(1.5)
	h.Observe(100)
	a := Snapshot{
		Counters:   []CounterSnapshot{{Name: "c_two", Value: 7}},
		Histograms: []HistogramSnapshot{h.Snapshot("h_one")},
	}
	b := Snapshot{
		Counters: []CounterSnapshot{{Name: "c_one", Value: 3}},
		Gauges:   []GaugeSnapshot{{Name: "g_one", Value: 0.25}},
	}
	encode := func(first, second Snapshot) string {
		var s Snapshot
		s.Merge(first)
		s.Merge(second)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	ab, ba := encode(a, b), encode(b, a)
	if ab != ba {
		t.Errorf("snapshot JSON depends on merge order:\n%s\n%s", ab, ba)
	}
	want := `{"counters":[{"name":"c_one","value":3},{"name":"c_two","value":7}],` +
		`"gauges":[{"name":"g_one","value":0.25}],` +
		`"histograms":[{"name":"h_one","count":2,"sum":101.5,"buckets":[{"exp":1,"count":1},{"exp":7,"count":1}]}]}`
	if ab != want {
		t.Errorf("snapshot JSON:\n got %s\nwant %s", ab, want)
	}
}

// TestHistogramQuantile: linear interpolation inside the target bucket,
// with the edge cases pinned — empty histogram, q=0, q=1, overflow bucket.
func TestHistogramQuantile(t *testing.T) {
	if !math.IsNaN((HistogramSnapshot{}).Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}

	var h Histogram
	for i := 0; i < 4; i++ {
		h.Observe(3) // bucket exponent 2: (2, 4]
	}
	hs := h.Snapshot("h")
	if got := hs.Quantile(0); got != 2 {
		t.Errorf("q=0 → %g, want lower bound 2", got)
	}
	if got := hs.Quantile(0.5); got != 3 {
		t.Errorf("q=0.5 → %g, want midpoint 3", got)
	}
	if got := hs.Quantile(1); got != 4 {
		t.Errorf("q=1 → %g, want upper bound 4", got)
	}

	h.Observe(math.Ldexp(1, maxExp) * 4) // overflow bucket
	hs = h.Snapshot("h")
	if got := hs.Quantile(1); got != math.Ldexp(1, maxExp) {
		t.Errorf("overflow-bucket quantile = %g, want lower bound 2^maxExp", got)
	}
}

// TestMerge: merging snapshots adds counters and histogram contents, sets
// gauges, and creates missing metrics.
func TestMerge(t *testing.T) {
	runSnapshot := func(counter uint64, gauge float64, obs []float64) Snapshot {
		var h Histogram
		for _, v := range obs {
			h.Observe(v)
		}
		return Snapshot{
			Counters:   []CounterSnapshot{{Name: "runs_total", Value: counter}},
			Gauges:     []GaugeSnapshot{{Name: "frac", Value: gauge}},
			Histograms: []HistogramSnapshot{h.Snapshot("cost")},
		}
	}
	var live Snapshot
	live.Merge(runSnapshot(2, 0.5, []float64{1, 3}))
	live.Merge(runSnapshot(3, 0.75, []float64{3, 100}))

	if len(live.Counters) != 1 || live.Counters[0].Value != 5 {
		t.Errorf("merged counters = %+v, want runs_total 5", live.Counters)
	}
	if len(live.Gauges) != 1 || live.Gauges[0].Value != 0.75 {
		t.Errorf("merged gauges = %+v, want frac at the last-merged 0.75", live.Gauges)
	}
	if len(live.Histograms) != 1 {
		t.Fatalf("merged histograms = %+v, want one", live.Histograms)
	}
	hs := live.Histograms[0]
	if hs.Count != 4 || hs.Sum != 107 {
		t.Errorf("merged histogram count=%d sum=%g, want 4 and 107", hs.Count, hs.Sum)
	}
	var direct Histogram
	for _, v := range []float64{1, 3, 3, 100} {
		direct.Observe(v)
	}
	if !reflect.DeepEqual(hs, direct.Snapshot("cost")) {
		t.Errorf("merged histogram %+v, want the one observing every value %+v", hs, direct.Snapshot("cost"))
	}
}

// TestWritePrometheus: the text exposition follows format 0.0.4 —
// HELP lines from the package's table, TYPE headers, cumulative
// le-labelled buckets, one +Inf bucket that includes the overflow, _sum
// and _count series — with every metric in name order across kinds.
func TestWritePrometheus(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	h.Observe(math.Ldexp(1, maxExp+1)) // overflow bucket
	s := Snapshot{
		Counters:   []CounterSnapshot{{Name: MetricSends, Value: 9}},
		Gauges:     []GaugeSnapshot{{Name: "awake_frac", Value: 0.5}},
		Histograms: []HistogramSnapshot{h.Snapshot(MetricSendBits)},
	}

	var buf strings.Builder
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE awake_frac gauge`,
		`awake_frac 0.5`,
		`# HELP sim_send_bits per-message payload size in bits`,
		`# TYPE sim_send_bits histogram`,
		`sim_send_bits_bucket{le="1"} 1`,
		`sim_send_bits_bucket{le="4"} 3`,
		`sim_send_bits_bucket{le="+Inf"} 4`,
		`sim_send_bits_sum 2.199023255559e+12`,
		`sim_send_bits_count 4`,
		`# HELP sim_sends_total messages sent`,
		`# TYPE sim_sends_total counter`,
		`sim_sends_total 9`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("Prometheus exposition:\n got:\n%s want:\n%s", buf.String(), want)
	}

	// Every metric the observer reports has HELP text.
	obs := NewObserver(0).Snapshot()
	var names []string
	for _, c := range obs.Counters {
		names = append(names, c.Name)
	}
	for _, g := range obs.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range obs.Histograms {
		names = append(names, h.Name)
	}
	for _, name := range append(names, MetricSweepRuns) {
		if help[name] == "" {
			t.Errorf("metric %s has no HELP text", name)
		}
	}
}
