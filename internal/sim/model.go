// Package sim contains the execution engine for distributed wake-up
// algorithms: one deterministic discrete-event core that runs asynchronous
// algorithms and, with every delay fixed at one round, lock-step
// synchronous ones, together with the model configuration
// (KT0/KT1 knowledge, CONGEST/LOCAL bandwidth), the oblivious adversary
// interfaces (wake schedules and message delays), and execution metrics.
//
// Model conventions follow the paper (§1.1–1.2):
//
//   - Time is normalized so that the maximum message delay τ equals 1; the
//     adversary assigns each message a delay in (0, 1].
//   - Communication channels are error-free and FIFO per directed edge.
//   - A sleeping node wakes permanently upon receiving its first message;
//     messages sent to sleeping nodes are never lost.
//   - The adversary is oblivious: delays and wake-up times may depend only
//     on static information, never on node state or random bits.
package sim

import (
	"math/rand"

	"riseandshine/internal/graph"
)

// Time is simulated time in units of the maximum message delay τ.
type Time float64

// Knowledge selects the initial-knowledge assumption.
type Knowledge int

// Knowledge assumptions (§1.1).
const (
	// KT0 is the port-numbering model: nodes address neighbors by port and
	// have no knowledge of neighbor IDs.
	KT0 Knowledge = iota + 1
	// KT1 gives every node the IDs of all its neighbors from the start.
	KT1
)

func (k Knowledge) String() string {
	switch k {
	case KT0:
		return "KT0"
	case KT1:
		return "KT1"
	default:
		return "Knowledge(?)"
	}
}

// Bandwidth selects the message-size regime.
type Bandwidth int

// Bandwidth regimes (§1.1).
const (
	// Congest limits messages to O(log n) bits.
	Congest Bandwidth = iota + 1
	// Local places no limit on message size.
	Local
)

func (b Bandwidth) String() string {
	switch b {
	case Congest:
		return "CONGEST"
	case Local:
		return "LOCAL"
	default:
		return "Bandwidth(?)"
	}
}

// Model bundles the knowledge and bandwidth axes.
type Model struct {
	Knowledge Knowledge
	Bandwidth Bandwidth
	// CongestBits optionally overrides the CONGEST message-size limit in
	// bits. Zero means the default 4·⌈log2 n⌉.
	CongestBits int
}

func (m Model) String() string {
	return m.Knowledge.String() + " " + m.Bandwidth.String()
}

// congestLimit returns the enforced per-message bit limit, or 0 for none.
func (m Model) congestLimit(n int) int {
	if m.Bandwidth != Congest {
		return 0
	}
	if m.CongestBits > 0 {
		return m.CongestBits
	}
	return 4 * CeilLog2(n)
}

// CeilLog2 returns ⌈log2 n⌉ clamped below at 1 — the "known log n" of the
// paper's model (§1.1), used to size NodeInfo.LogN, ranks, and the default
// CONGEST limit. The clamp means n ≤ 1 (including the degenerate n = 0)
// still grants one bit, so a single-node network has a well-defined
// message budget. Keep it the only ⌈log2⌉ in the tree.
func CeilLog2(n int) int {
	if n <= 1 {
		return 1
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// Message is the payload carried across an edge. Implementations report
// their size in bits for bandwidth accounting; sizes should reflect a
// reasonable serialization of the payload, since the CONGEST engine
// enforces the limit on this number.
type Message interface {
	// Bits reports the message's size. It sits on the engines' per-message
	// hot path, so every implementation must compute it without allocating.
	//
	//wakeup:noalloc
	Bits() int
}

// Delivery describes one received message as seen by the receiving node.
type Delivery struct {
	// Msg is the payload.
	Msg Message
	// Port is the receiver's port on which the message arrived (1-based).
	Port int
	// SenderPort is the sender's port for this edge. Per the paper's KT0
	// convention, the endpoint of an edge learns the port connection once
	// a message crosses the edge.
	SenderPort int
	// From is the sender's ID. Valid only under KT1; -1 under KT0 (where
	// identity information must travel in the payload if needed).
	From graph.NodeID
}

// NodeInfo is the static per-node information available to a machine when
// it is created, reflecting the configured knowledge assumption.
type NodeInfo struct {
	// ID is the node's unique identifier.
	ID graph.NodeID
	// N is the number of nodes in the network. The paper only assumes a
	// constant-factor upper bound on log n is known (§1.1); algorithms
	// that need n should use it only in ways that tolerate constant-factor
	// slack.
	N int
	// LogN is ⌈log2 n⌉, the quantity the paper assumes known.
	LogN int
	// Degree is the node's degree; ports are 1..Degree.
	Degree int
	// NeighborIDs[p-1] is the ID of the neighbor reached via port p. It is
	// nil under KT0. The slice is shared by every run of the Setup: a
	// machine must not modify it (its capacity equals its length, so an
	// append copies).
	NeighborIDs []graph.NodeID
	// Advice is the advice bit string assigned by the oracle (nil when the
	// scheme uses no advice). AdviceBits is its exact length in bits.
	Advice     []byte
	AdviceBits int
}

// AsyncRound is the sentinel Context.Round returns in asynchronous runs
// (sequential and sharded), where no global round structure exists. It is
// a named contract, not an arbitrary -1: algorithms that run in both
// timing models branch on Round() == AsyncRound (equivalently Round() < 0
// — synchronous rounds are always ≥ 0) to select their asynchronous
// behavior, and sharded runs return exactly the same sentinel so the
// branch is transparent to the shard count.
const AsyncRound = -1

// Context is the interface through which a machine interacts with the
// engine during a computing step. Implementations are not safe for use
// outside the handler invocation that received them: the engine hands
// every call on one core the same Context, rebound to the node being
// run, so a kept one would act as another node. The wakeuplint
// ctxretain analyzer rejects keeping one in the deterministic packages.
type Context interface {
	// Info returns the node's static information.
	Info() NodeInfo
	// Now returns the engine clock: simulated time in units of τ in an
	// asynchronous run, the current round number in a synchronous one.
	// Both clocks increase monotonically from any one node's point of
	// view, which is the only property portable algorithms may rely on;
	// values are not comparable across timing models.
	Now() Time
	// Round returns the current round (≥ 0) in a synchronous run and the
	// AsyncRound sentinel in an asynchronous one — sequential and sharded
	// runs return the identical value, so algorithms branching on it
	// behave the same under either.
	Round() int
	// Rand returns the node's private source of randomness: the
	// deterministic per-node stream NodeRand(seed, v), backed by the
	// compact PCG source (see DESIGN.md "Node randomness") and identical
	// under every engine.
	Rand() *rand.Rand
	// AdversarialWake reports whether this node was woken directly by the
	// adversary (true) or by receiving a message (false). Several
	// algorithms behave differently in the two cases — e.g. only
	// adversary-woken nodes initiate DFS traversals in Theorem 3.
	AdversarialWake() bool
	// Send transmits m over the given local port (1-based).
	Send(port int, m Message)
	// SendToID transmits m to the neighbor with the given ID. It is
	// available only under KT1: under KT0, or when no neighbor has the
	// ID, the engine sends nothing and fails the run with an error.
	SendToID(id graph.NodeID, m Message)
	// Broadcast transmits m over every incident edge.
	Broadcast(m Message)
}

// Program is the per-node state machine of an asynchronous algorithm.
// The engine calls OnWake exactly once, at the moment the node wakes
// (whether by the adversary or by a first message); if the wake was caused
// by a message, OnMessage follows immediately with that delivery.
type Program interface {
	OnWake(ctx Context)
	OnMessage(ctx Context, d Delivery)
}

// SyncProgram is the per-node state machine of a synchronous algorithm.
// OnWake is called at the start of the round in which the node wakes;
// OnRound is then called once per round (including the wake round), with
// the messages delivered at the start of that round. Nodes do not share a
// global clock: a machine can only count rounds since its own wake-up.
// The inbox is engine scratch, reused in the next round: a machine that
// keeps a Delivery past its OnRound call must copy it.
type SyncProgram interface {
	OnWake(ctx Context)
	OnRound(ctx Context, inbox []Delivery)
}

// Quiescer is optionally implemented by SyncPrograms to tell the engine
// when the machine has no future scheduled activity of its own. A
// synchronous run stops once all awake machines are quiescent, no
// messages are in flight, and no adversary wake-ups are pending. Machines
// that do not implement Quiescer are treated as always quiescent (purely
// message-driven).
type Quiescer interface {
	Quiescent() bool
}

// Algorithm creates per-node machines for asynchronous runs (Run).
type Algorithm interface {
	// Name identifies the algorithm in results and benchmarks.
	Name() string
	// NewMachine returns a fresh machine for one node.
	NewMachine(info NodeInfo) Program
}

// SyncAlgorithm creates per-node machines for synchronous runs (RunSync).
type SyncAlgorithm interface {
	Name() string
	NewMachine(info NodeInfo) SyncProgram
}
