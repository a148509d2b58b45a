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
