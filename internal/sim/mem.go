package sim

import (
	"fmt"
	"math/rand"
	"unsafe"
)

// Sizes of the scratch building blocks, taken from the compiler so the
// report tracks the real structs. The memory report is bookkeeping over
// slice capacities — it never calls the runtime allocator profiler, so
// enabling it cannot perturb a run.
var (
	eventBytes       = int64(unsafe.Sizeof(event{}))
	keyChunkBytes    = int64(unsafe.Sizeof(keyChunk{}))
	payloadPageBytes = int64(unsafe.Sizeof(payloadPage{}))
	ptrBytes         = int64(unsafe.Sizeof(uintptr(0)))
	nodeSlotBytes    = int64(unsafe.Sizeof(nodeSlot{}))
	deliveryBytes    = int64(unsafe.Sizeof(Delivery{}))
	ifaceBytes       = 2 * ptrBytes
	// pcgBytes and randWrapBytes are the two RNG SoA element sizes: node
	// v's generator is rngs[v] (16 bytes of PCG state) plus rands[v] (the
	// rand.Rand wrapper binding the stdlib API to it). Both are flat
	// arrays, so — unlike the old per-node lagged-Fibonacci estimate this
	// replaced — the report measures the real backing storage exactly.
	pcgBytes      = int64(unsafe.Sizeof(PCG{}))
	randWrapBytes = int64(unsafe.Sizeof(rand.Rand{}))
)

// MemReport is the peak scratch footprint of one run, by subsystem, in
// bytes. All figures are capacities of the engine's backing arrays at the
// end of the run; backing arrays only grow during a run, so end-of-run
// capacity is the peak. With a reused Engine the scratch carries over, so
// the report describes the engine's high-water mark, which is what
// capacity planning needs.
//
// The report answers the practical 10⁶-node question — "what does one more
// node or edge cost?": Nodes scales with n at a flat 32 bytes per node,
// Queue with the in-flight event population, FIFO with the directed edge
// count 2m, CSR with 2m at 8 bytes per directed edge under KT0 and 16
// under KT1 (plus 4 per node), RNG with n at a flat 64 bytes per node (16
// bytes of PCG state plus the rand.Rand wrapper — see DESIGN.md "Node
// randomness"; before the compact source this was ~4.8 KiB per woken node
// and 96 % of a million-node run). NodeInfo takes no table: a node's is
// built when it wakes.
type MemReport struct {
	// QueueBytes is the event queues' backing storage, summed over every
	// core the run used: the radix heap's chunk arena (24-byte keys in
	// 256-key chunks, with the chunk pointer and link tables), its payload
	// slab (40-byte payloads in 1024-slot pages, with the page table), and
	// the free lists of chunks and slots. The arena stays within
	// ⌈peak live events/256⌉ + 129 chunks. Once the engine has run a
	// synchronous algorithm it also covers the round buffers: one round's
	// deliveries as popped and as grouped by receiver.
	QueueBytes int64
	// FIFOBytes covers the per-directed-edge FIFO clamp and message
	// count arrays; the counts are also the run's message ledger.
	FIFOBytes int64
	// RNGBytes covers the per-node random generators: the flat PCG state
	// array plus the rand.Rand wrapper array (grown to the engine's
	// high-water node count, retained across runs of a reused engine). It
	// is capacity, not residency: a node's entries are first written on
	// its first ctx.Rand(), so for a program that never draws (flood) the
	// pages stay untouched and do not count toward RSS.
	RNGBytes int64
	// CSRBytes covers what the Setup holds: the edge metadata EdgeStart,
	// EdgeTo and RevPort (4 bytes per node plus 8 per directed edge) and,
	// under KT1, the flat neighbour-ID table behind every node's
	// NodeInfo.NeighborIDs (8 more bytes per directed edge).
	CSRBytes int64
	// NodeBytes covers the node records: 32 bytes per node holding the
	// machine, the wake time, and the awake, adversary and seeded flags
	// (30.5 MiB at 10⁶ nodes). Message counts take no per-node space: the
	// Result reads them off the per-edge counts FIFOBytes covers. Once the
	// engine has run a synchronous algorithm it also covers that run's
	// machine table and inbox offsets, 20 more bytes per node.
	NodeBytes int64
	// Shards is the number of partitions the run executed on; 0 means the
	// run took the sequential path, in which case OutboxBytes is zero.
	// QueueBytes then sums the per-shard queues — P small queues, not one
	// large one.
	Shards int `json:",omitempty"`
	// OutboxBytes covers the sharded path's cross-window plumbing: the
	// per-core staged outboxes, deferred observer records, and per-shard
	// inboxes. Like every other figure it is end-of-run capacity, i.e. the
	// high-water mark across all windows.
	OutboxBytes int64 `json:",omitempty"`
	// TotalBytes is the sum of the subsystem figures.
	TotalBytes int64
}

// String renders a compact single-line summary.
func (m *MemReport) String() string {
	s := fmt.Sprintf("mem: total=%s queue=%s fifo=%s rng=%s csr=%s nodes=%s",
		FormatBytes(m.TotalBytes), FormatBytes(m.QueueBytes), FormatBytes(m.FIFOBytes),
		FormatBytes(m.RNGBytes), FormatBytes(m.CSRBytes), FormatBytes(m.NodeBytes))
	if m.Shards > 1 {
		s += fmt.Sprintf(" shards=%d outbox=%s", m.Shards, FormatBytes(m.OutboxBytes))
	}
	return s
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// memReport assembles the per-subsystem scratch accounting over the shared
// run state; queueBytes is the event-queue figure summed over the run's
// cores.
func (r *runShared) memReport(queueBytes int64) *MemReport {
	s := r.s
	m := &MemReport{
		QueueBytes: queueBytes + int64(cap(r.arrivals))*eventBytes + int64(cap(r.inbox))*deliveryBytes,
		FIFOBytes:  int64(cap(r.fifoLast))*8 + int64(cap(r.edgeSeq))*4,
		RNGBytes:   int64(cap(r.rngs))*pcgBytes + int64(cap(r.rands))*randWrapBytes,
		CSRBytes: int64(len(s.EdgeStart))*4 + int64(len(s.EdgeTo))*4 +
			int64(len(s.RevPort))*4 + int64(len(s.neighborIDs))*8,
		NodeBytes: int64(cap(r.nodes))*nodeSlotBytes + int64(cap(r.machines))*ifaceBytes +
			int64(cap(r.inboxEnd))*4,
	}
	m.TotalBytes = m.QueueBytes + m.FIFOBytes + m.RNGBytes + m.CSRBytes + m.NodeBytes
	return m
}

// memReport assembles the engine's end-of-run accounting over the p cores
// the run used (cores[0] alone for a sequential run): their queues sum
// into QueueBytes, and on a sharded run the staging machinery — outboxes,
// observer records, inboxes, and the partition tables — lands in
// OutboxBytes, so `sweep -mem` stays truthful about what -shards adds.
func (e *Engine) memReport(p int) *MemReport {
	cores := e.cores[:p]
	var queueBytes int64
	for i := range cores {
		queueBytes += cores[i].queue.memBytes()
	}
	m := e.run.memReport(queueBytes)
	if p == 1 {
		return m
	}
	var outbox int64
	for i := range cores {
		c := &cores[i]
		outbox += int64(cap(c.staged))*stagedBytes + int64(cap(c.rec))*recBytes
	}
	for _, in := range e.inboxes {
		outbox += int64(cap(in)) * eventBytes
	}
	if pt := e.part; pt != nil {
		outbox += int64(cap(pt.Bounds))*4 + int64(cap(pt.NodeShard)) + int64(cap(pt.EdgeShard))
	}
	m.Shards = p
	m.OutboxBytes = outbox
	m.TotalBytes += outbox
	return m
}

var (
	stagedBytes = int64(unsafe.Sizeof(stagedSend{}))
	recBytes    = int64(unsafe.Sizeof(obsRecord{}))
)
