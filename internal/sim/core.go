package sim

import (
	"fmt"
	"math"
	"math/rand"

	"riseandshine/internal/graph"
)

// This file is the engine core shared by all of Engine's runs: one event
// loop over a contiguous node range. A sequential run is a single core
// spanning [0, n); a sharded run uses one core per partition and
// reconciles them at window barriers (see sharded.go and DESIGN.md
// "Sharded engine"); a synchronous run drives the sequential core round
// by round (see sync.go).
//
// The split keeps every per-message code path — wake, send, the FIFO
// clamp, CONGEST accounting — in exactly one place, so the paths cannot
// drift: byte-identical Results are a structural property, pinned end to
// end by the differential tests. The core's own state is the run's only
// ledger: result reads the Result off the node records, the per-edge
// message counts and each core's send tallies.

// runShared is the per-run state shared by every core of one engine:
// the immutable run configuration plus the scratch arrays that cores
// access on disjoint index ranges (nodes for the node records and RNG
// tables, CSR edge slots for fifoLast/edgeSeq). Disjointness is what makes
// the sharded path race-free without any locking on the hot path.
type runShared struct {
	alg     Algorithm     // nil in synchronous runs
	syncAlg SyncAlgorithm // nil in asynchronous runs
	g       *graph.Graph
	s       *Setup
	delays  Delayer
	seed    int64

	// Reusable scratch: reset, not reallocated (see DESIGN.md "Event
	// core"). nodes[v] is node v's record. Per-directed-edge state is
	// indexed CSR-style through Setup.EdgeStart: the out-edge of node v
	// addressed by port p lives at flat index EdgeStart[v]+p-1. A core only
	// touches the slots of its own node range.
	nodes    []nodeSlot
	fifoLast []Time // last scheduled delivery time (zero value never clamps: delivery times are > 0)
	// edgeSeq[ei] counts the messages sent so far on the edge: the k the
	// Delayer is keyed by, and at finish the run's message ledger, from
	// which result derives Messages, SentBy, ReceivedBy and PortsUsed.
	// Both are exact below 2³¹ messages per directed edge.
	edgeSeq []int32

	// Per-node randomness as flat SoA state: rngs[v] is node v's 16-byte
	// PCG generator and rands[v] the *rand.Rand wrapper bound to &rngs[v].
	// Both arrays are pointer-free into the heap graph, so a million-node
	// table is 64 B per node of cache-local state instead of 10⁶ separately
	// boxed ~5 KiB lagged-Fibonacci tables. Binding and seeding happen on
	// the node's first ctx.Rand() of the run (coreCtx.Rand), so a program
	// that never draws never touches the tables, and per-run RNG cost is
	// proportional to drawing nodes only.
	rngs  []PCG
	rands []rand.Rand

	// part is the node partition in sharded runs; nil in sequential runs,
	// whose send path then pushes straight into the core's queue.
	part *Partition

	// Synchronous-run scratch (sync.go): machines[v] is node v's machine,
	// nil while v sleeps; wakes is the sorted copy of the wake schedule;
	// arrivals holds one round's deliveries in send order and inbox the
	// same messages grouped by receiver, node v's ending at inboxEnd[v].
	machines []SyncProgram
	wakes    []Wakeup
	arrivals []event
	inbox    []Delivery
	inboxEnd []int32
}

// nodeSlot is one node's record: everything a wake writes — the machine,
// the wake time, and the awake, adversary and seeded flags — in 32 bytes
// (TestNodeSlotLayout); a delivery only reads it. At 10⁶ nodes a separate
// table per field cost one cache miss per table touched; the record costs
// one, and the event queue loads it early (eventHeap.warm) so even that
// one overlaps with its neighbours'. The zero value is a node that has not
// woken.
type nodeSlot struct {
	machine Program
	wakeAt  Time
	awake   bool
	adv     bool // woken directly by the adversary
	seeded  bool // the node's generator was bound and seeded this run (coreCtx.Rand)
}

// start points the shared state at one run on s and resets the scratch
// for it. The caller sets the run's algorithm.
func (r *runShared) start(s *Setup, delays Delayer, seed int64, part *Partition) {
	r.g = s.Graph
	r.s = s
	r.delays = delays
	r.seed = seed
	r.part = part
	n := s.Graph.N()
	r.reset(n, int(s.EdgeStart[n]))
}

// reset sizes and clears the shared scratch for n nodes and dir directed
// edges, reusing backing arrays whenever they are large enough. The RNG
// tables are only sized here, never cleared or bound: coreCtx.Rand binds
// and seeds a node's generator on its first call of the run, when the
// node's seeded flag (cleared with its record) is still false, so a
// wrapper always points into the current rngs array. Sizing stays here
// rather than in Rand because sharded cores must not grow a shared table
// concurrently; pages of a fresh table stay untouched until a node draws.
func (r *runShared) reset(n, dir int) {
	r.nodes = growClear(r.nodes, n)
	r.fifoLast = growClear(r.fifoLast, dir)
	r.edgeSeq = growClear(r.edgeSeq, dir)
	if len(r.rngs) < n {
		r.rngs = make([]PCG, n)
		r.rands = make([]rand.Rand, n)
	}
}

// Observer record kinds for the sharded engine's record/replay channel.
const (
	recWake = iota + 1
	recDeliver
	recSend
)

// obsRecord is one deferred observer call. Cores in a sharded run cannot
// call the user's Observer directly — calls would interleave across
// goroutines — so each core appends records tagged with the key (at, vseq)
// of the event being processed, and the coordinator replays the merged
// streams in key order at every window barrier, reproducing the sequential
// engine's exact call sequence (see sharded.go).
type obsRecord struct {
	kAt   Time
	kVseq int64
	kind  uint8
	adv   bool
	node  int      // woken/receiving node, or the sender for recSend
	port  int      // sender-side port for recSend
	d     Delivery // recDeliver payload; recSend stores the Message in d.Msg
}

// stagedSend is one message staged in a core's outbox during a window. The
// key (pAt, pVseq) identifies the sending (parent) event; the barrier merge
// orders children by parent key — stable within a core — which reproduces
// the sequential engine's global push order exactly, so the vseq numbers
// assigned at the barrier equal the seq numbers the sequential engine would
// have used (see sharded.go).
type stagedSend struct {
	ev    event
	pAt   Time
	pVseq int64
	dest  uint8 // destination shard (Partition.EdgeShard)
}

// engineCore is one event loop over a contiguous node range: all of it
// in a sequential or synchronous run, one partition's in a sharded run.
// A sequential run uses a single core with staging off; a sharded run uses
// one per partition with staging on, in which case push never runs —
// every send is staged and events enter the queue only through the inbox
// at window starts, already carrying their barrier-assigned vseq.
type engineCore struct {
	run *runShared

	queue eventHeap

	obs Observer // direct observer; nil in sharded cores (recOn instead)
	ctx coreCtx  // the Context of every handler call on this core

	now    Time
	round  int   // Context.Round: the round of a synchronous run, else AsyncRound
	seq    int64 // sequential push counter; unused when staging
	err    error
	events int // events processed by this core this run; rounds in a synchronous run

	// The core's share of the run's tallies that edgeSeq cannot give back:
	// nodes woken, and the bits, largest size and CONGEST violations of
	// the messages sent. result sums them over the run's cores.
	woken   int
	bits    int64
	maxBits int
	congest int

	// Sharded-mode state. curAt/curVseq are the key of the event being
	// processed — the tag for staged children and observer records.
	staging bool
	recOn   bool
	curAt   Time
	curVseq int64
	staged  []stagedSend
	rec     []obsRecord
	nextAt  Time // after a window: time of the first event ≥ windowEnd
}

// coreCtx is the Context handed to machine handlers. Each core owns one
// and rebinds it to the node whose handler it is about to call, so a
// pointer to it converts to the Context interface without allocating and
// no per-node table of contexts exists. A Context is valid only during the
// handler call it was passed to (the wakeuplint ctxretain analyzer forbids
// keeping one); a kept one would act as whatever node the core runs next.
type coreCtx struct {
	c    *engineCore
	node int
}

var _ Context = (*coreCtx)(nil)

//wakeup:noalloc
func (c *coreCtx) Info() NodeInfo { return c.c.run.s.info(c.node) }

//wakeup:noalloc
func (c *coreCtx) Now() Time { return c.c.now }

//wakeup:noalloc
func (c *coreCtx) Round() int { return c.c.round }

// Rand returns the node's generator, binding rands[v] to &rngs[v] and
// seeding it to the node's stream on the node's first call of the run.
// The stream is a pure function of (seed, v), so when the first draw
// happens cannot change what is drawn.
//
//wakeup:noalloc
func (c *coreCtx) Rand() *rand.Rand {
	r := c.c.run
	v := c.node
	if slot := &r.nodes[v]; !slot.seeded {
		slot.seeded = true
		//lint:noalloc-ok rand.New is inlined and its result does not escape (-gcflags=-m): this copies a fresh wrapper into the table
		r.rands[v] = *rand.New(&r.rngs[v])
		ReseedNode(&r.rands[v], r.seed, v)
	}
	return &r.rands[v]
}

//wakeup:noalloc
func (c *coreCtx) AdversarialWake() bool { return c.c.run.nodes[c.node].adv }

//wakeup:noalloc
func (c *coreCtx) Send(port int, m Message) {
	c.c.send(c.node, port, m)
}

//wakeup:noalloc
func (c *coreCtx) SendToID(id graph.NodeID, m Message) {
	c.c.sendToID(c.node, id, m)
}

//wakeup:noalloc
func (c *coreCtx) Broadcast(m Message) {
	start := c.c.run.s.EdgeStart
	deg := int(start[c.node+1] - start[c.node])
	for p := 1; p <= deg; p++ {
		c.c.send(c.node, p, m)
	}
}

//wakeup:noalloc
func (c *engineCore) push(ev event) {
	ev.seq = c.seq
	c.seq++
	c.queue.push(ev)
}

// record appends one deferred observer call tagged with the current event
// key (sharded runs only; see obsRecord).
//
//wakeup:noalloc
func (c *engineCore) record(kind uint8, node, port int, adv bool, d Delivery) {
	//lint:noalloc-ok grows to the window's high-water record count, then reuses the array (the barrier truncates, keeping capacity)
	c.rec = append(c.rec, obsRecord{
		kAt: c.curAt, kVseq: c.curVseq,
		kind: kind, adv: adv, node: node, port: port, d: d,
	})
}

// stage appends one outgoing message to the core's outbox instead of the
// event queue; the window barrier merges outboxes across cores, assigns
// vseq numbers, and routes each event to its destination shard's inbox.
//
//wakeup:noalloc
func (c *engineCore) stage(ev event, dest uint8) {
	//lint:noalloc-ok grows to the window's high-water outbox size, then reuses the array (the barrier truncates, keeping capacity)
	c.staged = append(c.staged, stagedSend{ev: ev, pAt: c.curAt, pVseq: c.curVseq, dest: dest})
}

//wakeup:noalloc
func (c *engineCore) wake(v int, adversarial bool) {
	r := c.run
	slot := &r.nodes[v]
	if slot.awake {
		return
	}
	slot.awake = true
	slot.wakeAt = c.now
	slot.adv = adversarial
	c.woken++
	if c.obs != nil {
		//lint:noalloc-ok observers are opt-in diagnostics on their own allocation budget; the nil guard keeps the default path clean
		c.obs.OnWake(c.now, v, adversarial)
	} else if c.recOn {
		c.record(recWake, v, 0, adversarial, Delivery{})
	}
	c.ctx.node = v
	if r.syncAlg != nil {
		//lint:noalloc-ok one machine per node per run, charged to the algorithm's budget
		m := r.syncAlg.NewMachine(r.s.info(v))
		r.machines[v] = m
		//lint:noalloc-ok handler allocations are the algorithm's budget, pinned by the steady-state zero-alloc tests
		m.OnWake(&c.ctx)
		return
	}
	//lint:noalloc-ok one machine per node per run, charged to the algorithm's budget
	slot.machine = r.alg.NewMachine(r.s.info(v))
	//lint:noalloc-ok handler allocations are the algorithm's budget, pinned by the steady-state zero-alloc tests
	slot.machine.OnWake(&c.ctx)
}

//wakeup:noalloc
func (c *engineCore) deliver(v int, d Delivery) {
	slot := &c.run.nodes[v]
	if !slot.awake {
		c.wake(v, false)
		if c.err != nil {
			return
		}
	}
	if c.obs != nil {
		//lint:noalloc-ok observers are opt-in diagnostics on their own allocation budget; the nil guard keeps the default path clean
		c.obs.OnDeliver(c.now, v, d)
	} else if c.recOn {
		c.record(recDeliver, v, 0, false, d)
	}
	c.ctx.node = v
	//lint:noalloc-ok handler allocations are the algorithm's budget, pinned by the steady-state zero-alloc tests
	slot.machine.OnMessage(&c.ctx, d)
}

//wakeup:noalloc
func (c *engineCore) send(from, port int, m Message) {
	if c.err != nil {
		return
	}
	r := c.run
	slot := &r.nodes[from]
	if !slot.awake {
		//lint:noalloc-ok error formatting aborts the run; never on the steady-state path
		c.err = fmt.Errorf("sim: sleeping node %d attempted to send", from)
		return
	}
	s := r.s
	ei := s.edge(from, port)
	to := int(s.EdgeTo[ei])
	bits := m.Bits()
	if bits < 0 {
		//lint:noalloc-ok error formatting aborts the run; never on the steady-state path
		c.err = fmt.Errorf("sim: message reports negative size %d bits", bits)
		return
	}
	c.bits += int64(bits)
	c.maxBits = max(c.maxBits, bits)
	if s.CongestLimit > 0 && bits > s.CongestLimit {
		c.congest++
	}
	if c.obs != nil {
		//lint:noalloc-ok observers are opt-in diagnostics on their own allocation budget; the nil guard keeps the default path clean
		c.obs.OnSend(c.now, from, port, m)
	} else if c.recOn {
		c.record(recSend, from, port, false, Delivery{Msg: m})
	}

	k := int(r.edgeSeq[ei])
	r.edgeSeq[ei]++
	delay := r.delays.Delay(from, to, k, c.now)
	if !(delay > 0 && delay <= 1) { // NaN fails both comparisons
		//lint:noalloc-ok error formatting aborts the run; never on the steady-state path
		c.err = fmt.Errorf("sim: delayer returned %v outside (0,1]", delay)
		return
	}
	at := c.now + Time(delay)
	if !(at > c.now) {
		// A delay below half an ulp of now rounds away; the message still
		// takes positive time.
		at = Time(math.Nextafter(float64(c.now), math.Inf(1)))
	}
	if last := r.fifoLast[ei]; at < last {
		at = last // enforce per-edge FIFO delivery
	}
	r.fifoLast[ei] = at

	ev := event{
		at:   at,
		kind: evDeliver,
		node: to,
		d: Delivery{
			Msg:        m,
			Port:       int(s.RevPort[ei]),
			SenderPort: port,
			From:       -1,
		},
	}
	if s.Model.Knowledge == KT1 {
		ev.d.From = r.g.ID(from)
	}
	if c.staging {
		c.stage(ev, r.part.EdgeShard[ei])
	} else {
		c.push(ev)
	}
}

//wakeup:noalloc
func (c *engineCore) sendToID(from int, id graph.NodeID, m Message) {
	r := c.run
	if r.s.Model.Knowledge != KT1 {
		//lint:noalloc-ok error formatting aborts the run; never on the steady-state path
		c.err = fmt.Errorf("sim: SendToID requires KT1 (model is %v)", r.s.Model.Knowledge)
		return
	}
	to := r.g.IndexOf(id)
	if to == -1 || !r.g.HasEdge(from, to) {
		//lint:noalloc-ok error formatting aborts the run; never on the steady-state path
		c.err = fmt.Errorf("sim: node ID %d has no neighbor with ID %d", r.g.ID(from), id)
		return
	}
	c.send(from, r.s.Ports.PortTo(from, to), m)
}

// reset readies the core for a run of run: per-run counters, tallies
// and barrier buffers cleared, the queue emptied (its storage kept) and
// pointed at the tables of the run its look-ahead reads, which
// runShared.reset may have reallocated, and the core's Context bound to
// this core. The caller sets the run's observer and staging mode.
func (c *engineCore) reset(run *runShared) {
	c.run = run
	c.now = 0
	c.round = AsyncRound
	c.seq = 0
	c.err = nil
	c.events = 0
	c.woken = 0
	c.bits = 0
	c.maxBits = 0
	c.congest = 0
	c.curAt = 0
	c.curVseq = 0
	c.nextAt = infTime
	truncateStaged(c)
	truncateRec(c)
	c.queue.reset()
	c.queue.tables = engineTables{
		nodes:     run.nodes,
		edgeStart: run.s.EdgeStart,
		edgeTo:    run.s.EdgeTo,
		revPort:   run.s.RevPort,
		edgeSeq:   run.edgeSeq,
		fifoLast:  run.fifoLast,
	}
	if run.part != nil {
		c.queue.tables.edgeShard = run.part.EdgeShard
	}
	c.ctx = coreCtx{c: c}
}

// runWindow is the sharded per-core loop for one window: push the inbox
// (events already carry their barrier-assigned vseq), then drain every
// event strictly before windowEnd, staging all children. Inbox events sit
// at or past the previous window's end, above every key the core has
// popped, which is the queue's monotone-push contract. The lookahead
// invariant — every child's delivery time is at least one window width
// after its parent — guarantees nothing pushed during the window is
// processed in it, so the drain is bounded by the pending population.
// budget caps the core's total events as a runaway guard; the coordinator
// converts budget exhaustion into the engine's event-limit error.
//
//wakeup:noalloc
func (c *engineCore) runWindow(inbox []event, windowEnd Time, budget int) {
	for _, ev := range inbox {
		c.queue.push(ev)
	}
	for {
		ev, next, ok := c.queue.popBefore(windowEnd)
		if !ok {
			c.nextAt = next
			return
		}
		c.now = ev.at
		c.curAt = ev.at
		c.curVseq = ev.seq
		c.events++
		switch ev.kind {
		case evWake:
			c.wake(ev.node, true)
		case evDeliver:
			c.deliver(ev.node, ev.d)
		}
		if c.err != nil || c.events >= budget {
			c.nextAt = c.now
			return
		}
	}
}
