package sim

import (
	"fmt"
	"math"
)

// Result reports the outcome and cost of one execution.
type Result struct {
	// Algorithm is the name reported by the algorithm.
	Algorithm string
	// N and M are the network size.
	N, M int

	// AllAwake reports whether every node woke up (the correctness
	// condition of the wake-up problem).
	AllAwake bool
	// AwakeCount is the number of nodes awake at termination.
	AwakeCount int

	// Messages is the total number of messages sent.
	Messages int
	// MessageBits is the total payload volume in bits.
	MessageBits int64
	// MaxMessageBits is the largest single message in bits.
	MaxMessageBits int
	// CongestViolations counts messages exceeding the CONGEST limit. The
	// engine delivers them anyway; ModelCheck fails a run that has any.
	CongestViolations int

	// Span is the time from the first wake-up until the last event
	// (message receipt or wake-up), in units of τ. For a synchronous run
	// this is the number of elapsed rounds.
	Span Time
	// WakeSpan is the time from the first wake-up until the last node woke
	// up; ≤ Span.
	WakeSpan Time
	// Rounds is the number of rounds executed (synchronous runs only).
	Rounds int

	// WakeAt[v] is the time node v woke (-1 if it never did).
	WakeAt []Time
	// AdversaryWoken[v] reports whether node v was woken directly by the
	// adversary (rather than by a message). The true ones form the awake
	// set A0 defining the awake distance ρ_awk.
	AdversaryWoken []bool
	// SentBy[v] and ReceivedBy[v] count per-node messages.
	SentBy, ReceivedBy []int
	// PortsUsed[v] is the number of distinct incident ports over which v
	// sent or received at least one message (tracked when
	// Config.TrackPorts is set; nil otherwise). This is the quantity the
	// Theorem 1 lower bound calls "small" when ≤ n/2^β.
	PortsUsed []int

	// AdviceMaxBits and AdviceTotalBits account for the oracle's advice.
	AdviceMaxBits   int
	AdviceTotalBits int64

	// TranscriptDigests[v] is an order-sensitive hash of all deliveries
	// received by node v, published by a DigestObserver in the run's
	// observer stack; nil without one.
	TranscriptDigests []uint64

	// AwakeTime is the total node-time spent awake, Σ_v (end − WakeAt[v]),
	// in units of τ. The paper's model charges nothing for staying awake
	// (footnote 2 distinguishes it from the energy-complexity literature),
	// but the measure lets experiments compare how long algorithms keep
	// the network busy.
	AwakeTime float64

	// Events is the number of engine events processed; in a synchronous
	// run, the number of rounds.
	Events int

	// Mem is the run's scratch memory report by subsystem (populated when
	// Config.MemReport is set; nil otherwise). It is diagnostic output:
	// byte-identity comparisons across queue implementations or engine
	// reuse should leave MemReport off, since the footprint legitimately
	// differs while the execution does not.
	Mem *MemReport `json:",omitempty"`
}

// result builds the Result of a drained run of the algorithm named alg
// on the given cores from the run's ledger: the node records, the
// per-edge message counts and the cores' tallies. end is the time of the
// run's last event and first that of its first wake, from which Span and
// WakeSpan are measured. A drained run has delivered every message it
// sent, so node v sent the messages counted on its out-edges and received
// those counted on the edges into it, and with trackPorts it used each
// port whose edge carried a message in either direction. WakeAt is -1
// for a node that never woke, and AwakeTime sums the awake durations in
// node order.
func (r *runShared) result(alg string, cores []engineCore, end, first Time, trackPorts bool) *Result {
	s := r.s
	n := r.g.N()
	res := &Result{
		Algorithm:       alg,
		N:               n,
		M:               r.g.M(),
		Span:            end - first,
		AdviceTotalBits: s.adviceTotalBits,
		AdviceMaxBits:   s.adviceMaxBits,
		WakeAt:          make([]Time, n),
		AdversaryWoken:  make([]bool, n),
		SentBy:          make([]int, n),
		ReceivedBy:      make([]int, n),
	}
	for i := range cores {
		c := &cores[i]
		res.Events += c.events
		res.AwakeCount += c.woken
		res.MessageBits += c.bits
		res.MaxMessageBits = max(res.MaxMessageBits, c.maxBits)
		res.CongestViolations += c.congest
	}
	res.AllAwake = res.AwakeCount == n
	lastWake := Time(0)
	for v := range n {
		slot := &r.nodes[v]
		res.WakeAt[v] = -1
		if slot.awake {
			res.WakeAt[v] = slot.wakeAt
			res.AwakeTime += float64(end - slot.wakeAt)
			if slot.wakeAt > lastWake {
				lastWake = slot.wakeAt
			}
		}
		res.AdversaryWoken[v] = slot.adv
		sent := 0
		for ei := s.EdgeStart[v]; ei < s.EdgeStart[v+1]; ei++ {
			k := int(r.edgeSeq[ei])
			sent += k
			res.ReceivedBy[s.EdgeTo[ei]] += k
		}
		res.SentBy[v] = sent
		res.Messages += sent
	}
	res.WakeSpan = lastWake - first
	if trackPorts {
		res.PortsUsed = make([]int, n)
		for v := range n {
			for ei := s.EdgeStart[v]; ei < s.EdgeStart[v+1]; ei++ {
				back := s.EdgeStart[s.EdgeTo[ei]] + s.RevPort[ei] - 1
				if r.edgeSeq[ei] > 0 || r.edgeSeq[back] > 0 {
					res.PortsUsed[v]++
				}
			}
		}
	}
	return res
}

// firstWake returns the time of an asynchronous run's first wake: the
// schedule's earliest time, taken from the first entry that has it, as
// the queue pops equal times in schedule order. Its sign is kept, since
// −0 is a legal wake time.
func firstWake(wakeups []Wakeup) Time {
	first := wakeups[0].At
	for _, w := range wakeups[1:] {
		if w.At < first {
			first = w.At
		}
	}
	return first
}

// AwakeSet returns the node indices woken directly by the adversary.
func (r *Result) AwakeSet() []int {
	var out []int
	for v, adv := range r.AdversaryWoken {
		if adv {
			out = append(out, v)
		}
	}
	return out
}

// AdviceAvgBits returns the average advice length per node in bits.
func (r *Result) AdviceAvgBits() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.AdviceTotalBits) / float64(r.N)
}

// MaxSentByNode returns the maximum number of messages sent by any node.
func (r *Result) MaxSentByNode() int {
	max := 0
	for _, s := range r.SentBy {
		if s > max {
			max = s
		}
	}
	return max
}

// String renders a compact single-line summary.
func (r *Result) String() string {
	span := float64(r.Span)
	if math.IsInf(span, 0) {
		span = -1
	}
	return fmt.Sprintf("%s: n=%d m=%d awake=%d/%d msgs=%d bits=%d span=%.2f rounds=%d advice(max=%db avg=%.1fb)",
		r.Algorithm, r.N, r.M, r.AwakeCount, r.N, r.Messages, r.MessageBits, span, r.Rounds,
		r.AdviceMaxBits, r.AdviceAvgBits())
}
