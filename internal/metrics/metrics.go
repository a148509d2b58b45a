// Package metrics is the simulator's metrics subsystem: log-bucketed
// histograms and the Observer that records one run's cost measures into
// plain counters, histograms and a frontier time series. Recording never
// allocates. A run's Snapshot has two exposition formats: its JSON
// encoding (the byte-identical per-run records the experiment harness
// emits) and Prometheus text (for scraping a live sweep).
//
// The package is bound by the repository's determinism contract: it never
// reads the wall clock or the global math/rand source, and every
// exposition lists metrics in sorted name order, so the same sequence of
// observations produces the same bytes on every host. Wall-clock concerns
// (scrape timing, run durations) live in the drivers.
//
// Nothing here is safe for concurrent use. Each run records into its own
// Observer, which the engine calls from one goroutine; a driver that
// aggregates runs for a concurrent reader (cmd/sweep -http) merges their
// snapshots into one Snapshot behind its own lock.
package metrics

import "math"

// Histogram bucket layout: bucket with exponent e covers (2^(e-1), 2^e];
// observations at or below 2^minExp collapse into the first bucket and
// observations above 2^maxExp land in the overflow bucket (exponent
// maxExp+1, exposed as le="+Inf"). The range covers sub-millisecond
// simulated times (2^-12 ≈ 2.4e-4) through ~10^12 (message-bit totals of
// any run this repo can complete).
const (
	minExp     = -12
	maxExp     = 40
	numBuckets = maxExp - minExp + 2 // one per exponent plus overflow
)

// bucketExp returns the bucket exponent for one observation.
func bucketExp(v float64) int {
	if math.IsNaN(v) || v > math.Ldexp(1, maxExp) {
		return maxExp + 1
	}
	if v <= math.Ldexp(1, minExp) {
		return minExp
	}
	f, e := math.Frexp(v) // v = f·2^e with f ∈ [0.5, 1)
	if f == 0.5 {
		e-- // exact powers of two belong to the bucket they bound
	}
	return e
}

// UpperBound returns the inclusive upper bound of the bucket with the
// given exponent: 2^exp, or +Inf for the overflow bucket.
func UpperBound(exp int) float64 {
	if exp > maxExp {
		return math.Inf(1)
	}
	return math.Ldexp(1, exp)
}

// Histogram is a base-2 log-bucketed distribution: counts per power-of-two
// bucket plus a running count and sum. The zero value is empty and ready
// to use.
type Histogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     float64
}

// Observe records one value.
//
//wakeup:noalloc
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketExp(v)-minExp]++
	h.count++
	h.sum += v
}

// add folds a snapshot's contents in; bucket exponents outside the layout
// clamp to the first or the overflow bucket.
func (h *Histogram) add(s HistogramSnapshot) {
	for _, b := range s.Buckets {
		h.buckets[min(max(b.Exp, minExp), maxExp+1)-minExp] += b.Count
	}
	h.count += s.Count
	h.sum += s.Sum
}

// Snapshot returns the distribution under the given metric name.
func (h *Histogram) Snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{Name: name, Count: h.count, Sum: h.sum, Buckets: []BucketSnapshot{}}
	for i, c := range h.buckets {
		if c > 0 {
			s.Buckets = append(s.Buckets, BucketSnapshot{Exp: minExp + i, Count: c})
		}
	}
	return s
}
