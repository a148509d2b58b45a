package sim

import "fmt"

// Accounting owns the execution metrics of a run: CONGEST accounting,
// message and wake bookkeeping, and the final Result assembly. Runs in
// both timing models tally through one Accounting, so a metric means the
// same thing under either.
//
// The per-node tallies live with the engine, one NodeTally per node inside
// its node record, beside everything else a wake or a delivery writes.
// Wake, Send and Deliver take the node's tally; finish reads every tally
// back into the Result's per-node arrays, which are allocated only then.
//
// Accounting is not safe for concurrent use; a sharded run gives each core
// its own view (shardView) and folds them together at the end.
type Accounting struct {
	res      Result
	limit    int
	portUsed [][]bool

	firstSet bool
	first    Time
	lastWake Time
}

// NodeTally is one node's running totals: the node's entries of
// Result.WakeAt, AdversaryWoken, SentBy and ReceivedBy while the run is in
// progress. The zero value is a node that has not woken. Only Accounting
// writes the totals.
type NodeTally struct {
	wakeAt   Time
	sent     int
	received int
	awake    bool
	adv      bool // woken directly by the adversary
	// seeded is the engine's, not the accounting's: the node's generator
	// was bound and seeded this run (coreCtx.Rand). It takes a byte of
	// padding the tally has anyway, which keeps nodeSlot at 48 bytes.
	seeded bool
}

// NewAccounting assembles the base Result for one execution of algName on
// the given Setup. TrackPorts enables the per-node distinct-port counters
// behind Result.PortsUsed.
func NewAccounting(s *Setup, algName string, trackPorts bool) *Accounting {
	n := s.Graph.N()
	a := &Accounting{
		limit: s.CongestLimit,
		res: Result{
			Algorithm:       algName,
			N:               n,
			M:               s.Graph.M(),
			AdviceTotalBits: s.adviceTotalBits,
			AdviceMaxBits:   s.adviceMaxBits,
		},
	}
	if trackPorts {
		a.portUsed = make([][]bool, n)
		for v := 0; v < n; v++ {
			a.portUsed[v] = make([]bool, s.Graph.Degree(v))
		}
	}
	return a
}

// Result exposes the metrics being assembled. Engines may set fields only
// they can know (Events, Rounds); everything shared flows through the
// Wake/Send/Deliver/finish methods.
func (a *Accounting) Result() *Result { return &a.res }

// Wake records the node whose tally is t waking at the given time,
// directly by the adversary when adversarial is true. Callers guarantee at
// most one call per node and run, and read t's awake flag to keep it.
//
//wakeup:noalloc
func (a *Accounting) Wake(t *NodeTally, at Time, adversarial bool) {
	a.res.AwakeCount++
	t.awake = true
	t.wakeAt = at
	t.adv = adversarial
	if !a.firstSet {
		a.firstSet = true
		a.first = at
	}
	if at > a.lastWake {
		a.lastWake = at
	}
}

// Send records one message of the given size leaving node from, whose
// tally is t, over the given port. It rejects negative sizes and counts
// CONGEST violations into Result.CongestViolations.
//
//wakeup:noalloc
func (a *Accounting) Send(t *NodeTally, from, port, bits int) error {
	if bits < 0 {
		//lint:noalloc-ok error formatting aborts the run; never on the steady-state path
		return fmt.Errorf("sim: message reports negative size %d bits", bits)
	}
	a.res.Messages++
	a.res.MessageBits += int64(bits)
	if bits > a.res.MaxMessageBits {
		a.res.MaxMessageBits = bits
	}
	if a.limit > 0 && bits > a.limit {
		a.res.CongestViolations++
	}
	t.sent++
	if a.portUsed != nil {
		a.portUsed[from][port-1] = true
	}
	return nil
}

// Deliver records node v, whose tally is t, receiving one message on the
// given port.
//
//wakeup:noalloc
func (a *Accounting) Deliver(t *NodeTally, v, port int) {
	t.received++
	if a.portUsed != nil {
		a.portUsed[v][port-1] = true
	}
}

// finish derives the aggregate metrics once the execution has quiesced:
// end is the time of the last engine event, and nodes holds the N node
// records. It allocates the per-node Result arrays and fills them from
// the records' tallies (WakeAt is -1 for a node that never woke).
// Span and WakeSpan are measured from the first wake-up, AwakeTime sums
// per-node awake durations in node order, and the TrackPorts counters
// collapse into Result.PortsUsed.
func (a *Accounting) finish(end Time, nodes []nodeSlot) {
	r := &a.res
	r.AllAwake = r.AwakeCount == r.N
	if a.firstSet {
		r.Span = end - a.first
		r.WakeSpan = a.lastWake - a.first
	}
	r.WakeAt = make([]Time, r.N)
	r.AdversaryWoken = make([]bool, r.N)
	r.SentBy = make([]int, r.N)
	r.ReceivedBy = make([]int, r.N)
	for v := 0; v < r.N; v++ {
		t := &nodes[v].NodeTally
		r.WakeAt[v] = -1
		if t.awake {
			r.WakeAt[v] = t.wakeAt
			r.AwakeTime += float64(end - t.wakeAt)
		}
		r.AdversaryWoken[v] = t.adv
		r.SentBy[v] = t.sent
		r.ReceivedBy[v] = t.received
	}
	if a.portUsed != nil {
		r.PortsUsed = make([]int, len(a.portUsed))
		for v, used := range a.portUsed {
			count := 0
			for _, u := range used {
				if u {
					count++
				}
			}
			r.PortsUsed[v] = count
		}
	}
}

// shardView returns a per-core Accounting for one shard of a sharded run.
// The per-node tallies already live in the shared node records, which
// cores write on disjoint index ranges; the scalar tallies stay private to
// the view and fold back via absorb at the end of the run. portUsed is
// shared too: its outer slice is indexed by node.
func (a *Accounting) shardView() *Accounting {
	return &Accounting{limit: a.limit, portUsed: a.portUsed}
}

// absorb folds a shard view's scalar tallies into the master Accounting.
// Every operation is commutative (sums, maxima, min-of-first-wake), so the
// merged totals are independent of shard count and order — a prerequisite
// for the sharded engine's byte-identical Results.
func (a *Accounting) absorb(o *Accounting) {
	a.res.Messages += o.res.Messages
	a.res.MessageBits += o.res.MessageBits
	if o.res.MaxMessageBits > a.res.MaxMessageBits {
		a.res.MaxMessageBits = o.res.MaxMessageBits
	}
	a.res.AwakeCount += o.res.AwakeCount
	a.res.CongestViolations += o.res.CongestViolations
	if o.firstSet {
		if !a.firstSet || o.first < a.first {
			a.first = o.first
		}
		a.firstSet = true
		if o.lastWake > a.lastWake {
			a.lastWake = o.lastWake
		}
	}
}
