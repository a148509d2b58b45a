package sim

import (
	"fmt"
	"math"

	"riseandshine/internal/graph"
)

// Wakeup is one adversarial wake-up instruction: node (by index) is woken
// at the given time. In a synchronous run, At is truncated to a round
// number.
type Wakeup struct {
	Node int
	At   Time
}

// WakeScheduler decides which nodes the adversary wakes and when. The
// schedule is fixed before the execution starts (obliviousness).
type WakeScheduler interface {
	// Wakeups returns the wake schedule for the given graph. It must be
	// non-empty and reference valid node indices.
	Wakeups(g *graph.Graph) []Wakeup
}

// Delayer assigns message delays. It must return values in (0, 1] (time is
// normalized to the maximum delay τ = 1) and may depend only on the static
// arguments given — never on node state — keeping the adversary oblivious.
type Delayer interface {
	// Delay returns the delay of the k-th message (k = 0, 1, …) sent on the
	// directed edge from→to, which was sent at sendTime. It is called once
	// per message, so implementations must not allocate.
	//
	//wakeup:noalloc
	Delay(from, to, k int, sendTime Time) float64
}

// Lookahead is optionally implemented by Delayers that can promise a
// positive lower bound on every delay they will ever return. The bound is
// the conservative-parallel lookahead: the sharded engine quantizes time
// into windows of that width, knowing no message sent inside a window can
// be delivered in it. A Delayer without Lookahead (or returning ≤ 0) keeps
// the run on the sequential path — correct, just not parallel.
type Lookahead interface {
	// Lookahead returns a lower bound L such that every Delay call returns
	// at least L. Implementations must be conservative: returning less
	// than the true bound only shrinks windows, returning more breaks the
	// sharded engine's determinism guarantee.
	Lookahead() float64
}

// Adversary couples a wake schedule with a delay strategy.
type Adversary struct {
	Schedule WakeScheduler
	Delays   Delayer
}

// --- Wake schedules ---

// WakeSet wakes a fixed set of node indices, all at the given time.
type WakeSet struct {
	Nodes []int
	At    Time
}

// Wakeups implements WakeScheduler.
func (w WakeSet) Wakeups(*graph.Graph) []Wakeup {
	out := make([]Wakeup, len(w.Nodes))
	for i, v := range w.Nodes {
		out[i] = Wakeup{Node: v, At: w.At}
	}
	return out
}

// WakeSingle wakes only the given node at time 0. The wake-up problem from
// a single source is the hardest case for the awake distance.
func WakeSingle(v int) WakeScheduler { return WakeSet{Nodes: []int{v}} }

// WakeAll wakes every node at time 0 (ρ_awk = 0).
type WakeAll struct{}

// Wakeups implements WakeScheduler.
func (WakeAll) Wakeups(g *graph.Graph) []Wakeup {
	out := make([]Wakeup, g.N())
	for v := range out {
		out[v] = Wakeup{Node: v}
	}
	return out
}

// RandomWake wakes Count distinct random nodes at independent random times
// in [0, Window]. A Seed of zero still yields a deterministic schedule.
type RandomWake struct {
	Count  int
	Window Time
	Seed   int64
}

// Wakeups implements WakeScheduler. Randomness comes from a value-typed
// scratch PCG on the stack — no generator allocation per run (the old
// rand.New(rand.NewSource(...)) built a ~5 KiB source per call); the only
// allocations left are the permutation and the schedule itself, pinned by
// TestWakeSchedulerAllocs.
func (w RandomWake) Wakeups(g *graph.Graph) []Wakeup {
	n := g.N()
	count := w.Count
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	var rng PCG
	rng.Seed(deriveSeed(w.Seed, streamWake, uint64(n)))
	perm := pcgPerm(&rng, n)
	out := make([]Wakeup, count)
	for i := 0; i < count; i++ {
		at := Time(0)
		if w.Window > 0 {
			at = Time(rng.Float64()) * w.Window
		}
		out[i] = Wakeup{Node: perm[i], At: at}
	}
	return out
}

// StaggeredWake implements the adversarial strategy analyzed in Theorem 3's
// proof: wake disjoint batches of nodes at increasing times, attempting to
// discard the currently-dominant DFS token just before it finishes. Batch i
// has size Sizes[i] (random distinct nodes) and is woken at time i·Gap.
type StaggeredWake struct {
	Sizes []int
	Gap   Time
	Seed  int64
}

// Wakeups implements WakeScheduler. Like RandomWake it draws from a
// stack-scratch PCG and pre-sizes the schedule, so the per-run allocation
// count is a pinned constant (TestWakeSchedulerAllocs).
func (w StaggeredWake) Wakeups(g *graph.Graph) []Wakeup {
	n := g.N()
	var rng PCG
	rng.Seed(deriveSeed(w.Seed, streamWake, uint64(n)+1))
	perm := pcgPerm(&rng, n)
	total := 0
	for _, size := range w.Sizes {
		total += size
	}
	if total > n {
		total = n
	}
	if total < 1 {
		total = 1
	}
	out := make([]Wakeup, 0, total)
	next := 0
	for i, size := range w.Sizes {
		for j := 0; j < size && next < n; j++ {
			out = append(out, Wakeup{Node: perm[next], At: Time(i) * w.Gap})
			next++
		}
	}
	if len(out) == 0 {
		out = append(out, Wakeup{Node: perm[0]})
	}
	return out
}

// DominatingWake greedily selects a dominating set and wakes it at time 0,
// producing executions with ρ_awk ≤ 1 — the regime of Theorem 4's analysis
// and Theorem 2's lower bound.
type DominatingWake struct{}

// Wakeups implements WakeScheduler.
func (DominatingWake) Wakeups(g *graph.Graph) []Wakeup {
	n := g.N()
	dominated := make([]bool, n)
	var out []Wakeup
	// Greedy max-coverage by descending degree order, deterministic.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// simple counting sort by degree descending
	maxDeg := g.MaxDegree()
	buckets := make([][]int, maxDeg+1)
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		buckets[d] = append(buckets[d], v)
	}
	k := 0
	for d := maxDeg; d >= 0; d-- {
		for _, v := range buckets[d] {
			order[k] = v
			k++
		}
	}
	for _, v := range order {
		if dominated[v] {
			continue
		}
		covers := false
		if !dominated[v] {
			covers = true
		}
		for _, w := range g.Neighbors(v) {
			if !dominated[w] {
				covers = true
			}
		}
		if !covers {
			continue
		}
		out = append(out, Wakeup{Node: v})
		dominated[v] = true
		for _, w := range g.Neighbors(v) {
			dominated[w] = true
		}
	}
	return out
}

// --- Delay strategies ---

// UnitDelay delivers every message after exactly one time unit; the
// asynchronous execution then mirrors a synchronous one.
type UnitDelay struct{}

// Delay implements Delayer.
func (UnitDelay) Delay(int, int, int, Time) float64 { return 1 }

// Lookahead implements Lookahead: every delay is exactly 1.
func (UnitDelay) Lookahead() float64 { return 1 }

// RandomDelay assigns each message an independent deterministic
// pseudo-random delay, keyed by (edge, message index). The result is
// guaranteed to lie in (Min, 1] — strictly above Min and never above the
// maximum delay τ = 1 — as the engine's delay contract requires.
type RandomDelay struct {
	Seed int64
	// Min is the exclusive lower bound of the delay range; defaults to 0.
	// Values outside [0, 1) are clamped: negative (or NaN) to 0, and ≥ 1
	// to the largest float64 below 1 (delays then all round to ≈ 1, the
	// UnitDelay limit).
	Min float64
}

// Delay implements Delayer.
func (d RandomDelay) Delay(from, to, k int, _ Time) float64 {
	return delayInterval(d.Min, hashUnit(d.Seed, from, to, k))
}

// Lookahead implements Lookahead: delayInterval guarantees every delay is
// strictly above the clamped Min, so Min itself is a sound lower bound.
// The default Min = 0 reports no lookahead, keeping the run sequential —
// zero-lookahead delays admit no conservative windows.
func (d RandomDelay) Lookahead() float64 {
	switch {
	case !(d.Min > 0): // negative, zero, or NaN — the delayInterval clamp
		return 0
	case d.Min >= 1:
		return math.Nextafter(1, 0)
	}
	return d.Min
}

// delayInterval maps a uniform u in (0, 1] into (min, 1], clamping min
// into [0, 1) first. The naive min + u·(1-min) violates the exclusive
// lower bound in floating point: for u near 2^-53 the step u·(1-min) can
// round away entirely (min = 0.5 gives 0.5 + 2^-54 → 0.5), yielding
// exactly min — with min = 0 that is a zero delay, which the engine
// rejects. Collapsed values are bumped to the next float64 above min; for
// min = 0 the arithmetic is exact (0 + u·1 = u), so default-range streams
// are bit-identical to the pre-guard implementation.
func delayInterval(min, u float64) float64 {
	switch {
	case !(min > 0): // negative, zero, or NaN
		min = 0
	case min >= 1:
		min = math.Nextafter(1, 0)
	}
	d := min + u*(1-min)
	if d <= min {
		d = math.Nextafter(min, 2)
	}
	if d > 1 {
		d = 1
	}
	return d
}

// BiasedDelay slows down a designated set of directed edges to the maximum
// delay while keeping all others fast, modelling an adversary that starves
// chosen links. Edges not listed get delay Fast.
type BiasedDelay struct {
	Slow map[[2]int]bool
	Fast float64
}

// Delay implements Delayer.
func (d BiasedDelay) Delay(from, to, _ int, _ Time) float64 {
	if d.Slow[[2]int{from, to}] {
		return 1
	}
	fast := d.Fast
	if !(fast > 0 && fast <= 1) { // also catches NaN
		fast = 0.01
	}
	return fast
}

// Lookahead implements Lookahead: the effective fast delay bounds every
// edge from below (slow edges return the maximum delay 1).
func (d BiasedDelay) Lookahead() float64 {
	fast := d.Fast
	if !(fast > 0 && fast <= 1) { // also catches NaN
		fast = 0.01
	}
	return fast
}

// validateSchedule checks the schedule against the graph, returning a
// descriptive error for out-of-range nodes, negative or non-finite times,
// times at or above the engine's limit, or an empty schedule. A NaN or
// infinite time would break the strict (at, seq) event order that makes
// runs deterministic.
func validateSchedule(g *graph.Graph, wakeups []Wakeup, limit Time) error {
	if len(wakeups) == 0 {
		return fmt.Errorf("sim: adversary wake schedule is empty")
	}
	for _, w := range wakeups {
		if w.Node < 0 || w.Node >= g.N() {
			return fmt.Errorf("sim: wakeup node %d out of range [0,%d)", w.Node, g.N())
		}
		if w.At < 0 {
			return fmt.Errorf("sim: wakeup time %v is negative", w.At)
		}
		if math.IsNaN(float64(w.At)) || math.IsInf(float64(w.At), 0) {
			return fmt.Errorf("sim: wakeup time %v is not finite", w.At)
		}
		if w.At >= limit {
			return fmt.Errorf("sim: wakeup time %v is at or above the engine's limit %v", w.At, limit)
		}
	}
	return nil
}
