package sim

import (
	"fmt"
	"math"
	"math/bits"

	"riseandshine/internal/graph"
)

// eventHeap is the engine's event queue: a radix heap (Ahuja, Mehlhorn,
// Orlin & Tarjan, JACM 1990) with byte digits, the multi-level buckets of
// Denardo & Fox (Oper. Res. 1979), over the 128-bit key
// (Float64bits(at), seq). Sequence numbers are unique within a run, so the
// key is a strict total order and the pop sequence is exactly the sorted
// order of the pushed events, which the differential tests in
// heap_test.go pin against container/heap.
//
// A radix heap needs monotone pushes: every pushed key must be at least
// last, the last popped key. The engine guarantees it (DESIGN.md "One
// event queue"): a sequential run pushes at max(now+delay, fifoLast) ≥ now
// with a fresh, larger seq, and a sharded core pushes only inbox events,
// which sit at or past the window it last drained. Delivery times are
// never negative, and for non-negative floats the IEEE bit pattern orders
// like the value, so the key compares as two unsigned words. −0 (a legal
// wake time) is folded onto +0, tying it with 0 by seq as the float order
// does; the payload keeps the sign so the popped event is bit-exact.
//
// The key's 16 bytes are 16 levels of 256 buckets: levels 8 to 15 are the
// bytes of the time word, levels 0 to 7 those of seq. A key above last
// lives on level ℓ, the byte holding the highest bit where it differs from
// last, in bucket ℓ·256 + d, d being the key's own byte ℓ; so bucket order
// is key order. Seq is unique, so at most one queued key equals last; it
// sits in a slot of its own, and pop takes it from there. When the slot is
// empty, the minimum of the lowest non-empty bucket (each bucket keeps its
// minimum as keys arrive) becomes last, and that bucket is spread: its
// keys agree with the new last on byte ℓ and above, so each lands on a
// lower level, while the keys of higher buckets keep theirs. A key
// therefore moves at most 16 times, once per level, where one-bit buckets
// moved it one bit per spread: on a flood of complete:2000 with every
// node awake, 4.38 moves per event against 14.94 (DESIGN.md "One event
// queue"). A 64-word non-empty mask and a summary word over it find the
// lowest bucket with two trailing-zero counts.
//
// The look-ahead loads each key's lines once, a batch ahead of its pop:
// buckets below the watermark warmTo hold only keys warm has loaded, and
// spreading a bucket at or above it first gathers about warmMin keys from
// there up (lookAhead). With one-bit buckets the look-ahead ran on every
// one-chunk spread, and a key went through warm 4.51 times on the same
// flood; now it goes through 1.00 times.
//
// Keys are 24 bytes: the two key words and a slot in the payload slab,
// where the rest of the event — node, kind and the Delivery — is written
// once at push and read once at pop. Buckets are singly linked lists of
// fixed 64-key chunks from one pool shared by all 4096 buckets; every
// chunk but a bucket's newest is full, so the arena stays within
// ⌈live/64⌉ + 4096 chunks of the live key count. Chunks are allocated 16
// to a group and join the arena one at a time, so storage stays within
// ⌈live/64⌉ + 4096 + 15 chunks. The slab grows in pages of 1024 payloads,
// so neither structure ever copies to grow.
type eventHeap struct {
	lastHi, lastLo uint64 // last: the last popped key, (0, 0) after reset
	live           int    // events queued

	atLast  queueKey // the queued key equal to last, if hasLast
	hasLast bool

	summary uint64                  // bit w set: mask[w] != 0
	mask    [numBuckets / 64]uint64 // bit b%64 of word b/64 set: bucket b is non-empty
	buckets [numBuckets]bucketHead

	// warmTo is the look-ahead's watermark: every key in a bucket below
	// it has been through warm.
	warmTo int

	// The chunk arena: chunks[c] is chunk c, link[c] the next-older chunk
	// of its bucket (-1 for a bucket's oldest), freeChunks the pool of
	// unused chunk indices, and spare the chunks of the last group
	// allocated that have not joined the arena yet.
	chunks     []*keyChunk
	link       []int32
	freeChunks []int32
	spare      []keyChunk

	// The payload slab, in pages so that growing it never copies, the
	// number of slots it has handed out, and its LIFO free list of slots.
	slab      []*payloadPage
	slabLen   uint32
	freeSlots []uint32

	// tables are the engine tables warm loads ahead of delivery. The
	// engine points them at the current run's on every run
	// (engineCore.reset); a queue used on its own leaves them empty.
	tables engineTables
	ahead  [warmMin + chunkKeys - 1]int32 // warm's scratch: what one pass hands the next
	sink   uint8                          // see warm

	// The queue's work since reset, a function of the pushes and pops
	// alone: keys moved by spreads, and keys handed to warm.
	moved, warmed int64
}

// engineTables are views of the engine tables that popping a key and
// handling its event read: the node records and, for a node that wakes,
// its CSR offsets and the state of its out-edge slots (see runShared).
// edgeShard is nil in sequential and synchronous runs.
type engineTables struct {
	nodes                      []nodeSlot
	edgeStart, edgeTo, revPort []int32
	edgeSeq                    []int32
	fifoLast                   []Time
	edgeShard                  []uint8
}

const (
	numBuckets = 16 * 256 // a level of 256 byte digits per byte of the 128-bit key
	chunkKeys  = 64
	chunkGroup = 16 // chunks allocated at once: 24 KiB
	pageSlots  = 1024
)

// queueKey is one queued key: the two key words and the event's payload
// slot. It holds no pointers, so buckets are never scanned by the GC.
type queueKey struct {
	hi   uint64 // math.Float64bits(at), with −0 folded onto +0
	lo   uint64 // seq
	slot uint32 // payload slot in eventHeap.slab
}

type keyChunk [chunkKeys]queueKey

// bucketHead is one bucket: its newest chunk (also by arena index), the
// number of keys in it, and the bucket's minimum key, kept on every add so
// a pop finds the next last without rescanning the bucket. Older chunks,
// reached through link, are full. An empty bucket has n = 0.
type bucketHead struct {
	keys         *keyChunk
	tail         int32
	n            int32
	minHi, minLo uint64
}

// eventPayload is an event minus its key, packed to 40 bytes. Node, port
// and sender-port numbers fit int32 because the CSR edge tables index
// them with int32.
type eventPayload struct {
	msg     Message
	from    graph.NodeID
	node    int32
	port    int32
	sport   int32
	kind    uint8
	negZero bool // the event's time was −0
}

type payloadPage [pageSlots]eventPayload

// memBytes reports the queue's backing storage for the memory report: the
// chunk arena with its link table and spare chunks, the payload slab, and
// both free lists.
func (h *eventHeap) memBytes() int64 {
	return int64(len(h.chunks)+len(h.spare))*keyChunkBytes + int64(cap(h.chunks))*ptrBytes +
		int64(cap(h.link))*4 + int64(cap(h.freeChunks))*4 +
		int64(len(h.slab))*payloadPageBytes + int64(cap(h.slab))*ptrBytes +
		int64(cap(h.freeSlots))*4
}

// reset empties the queue, keeping the arena, the slab and the free lists
// for reuse. Payloads left by an aborted run are cleared so the queue does
// not pin their messages; a drained queue has cleared them at pop, and its
// buckets are already empty.
func (h *eventHeap) reset() {
	if h.live > 0 {
		for _, pg := range h.slab {
			clear(pg[:])
		}
		for w, m := range h.mask {
			for ; m != 0; m &= m - 1 {
				h.buckets[w<<6|bits.TrailingZeros64(m)] = bucketHead{}
			}
		}
	}
	h.lastHi, h.lastLo = 0, 0
	h.live = 0
	h.atLast, h.hasLast = queueKey{}, false
	h.summary = 0
	h.mask = [len(h.mask)]uint64{}
	h.warmTo = 0
	h.freeChunks = h.freeChunks[:0]
	for c := len(h.chunks) - 1; c >= 0; c-- {
		//lint:noalloc-ok the free list grows to the arena size once, then every later reset reuses it
		h.freeChunks = append(h.freeChunks, int32(c))
	}
	h.slabLen = 0
	h.freeSlots = h.freeSlots[:0]
	h.moved, h.warmed = 0, 0
}

// push adds ev. Its key must not be below the last popped key; a push
// below it can only come from an engine bug, so it panics.
func (h *eventHeap) push(ev event) {
	hi := math.Float64bits(float64(ev.at))
	negZero := false
	if hi>>63 != 0 {
		if hi != 1<<63 {
			h.pushedBelowLast(ev) // a negative time is below every key
		}
		hi, negZero = 0, true
	}
	lo := uint64(ev.seq)
	_, borrow := bits.Sub64(lo, h.lastLo, 0)
	if _, borrow = bits.Sub64(hi, h.lastHi, borrow); borrow != 0 {
		h.pushedBelowLast(ev)
	}
	var slot uint32
	if n := len(h.freeSlots); n > 0 {
		slot = h.freeSlots[n-1]
		h.freeSlots = h.freeSlots[:n-1]
	} else {
		slot = h.slabLen
		h.slabLen++
		if int(slot/pageSlots) == len(h.slab) {
			//lint:noalloc-ok the slab grows a page at a time to the high-water mark of in-flight events, then reuses slots through the free list (reset keeps the pages)
			h.slab = append(h.slab, new(payloadPage))
		}
	}
	h.slab[slot/pageSlots][slot%pageSlots] = eventPayload{
		msg:     ev.d.Msg,
		from:    ev.d.From,
		node:    int32(ev.node),
		port:    int32(ev.d.Port),
		sport:   int32(ev.d.SenderPort),
		kind:    uint8(ev.kind),
		negZero: negZero,
	}
	h.live++
	k := queueKey{hi: hi, lo: lo, slot: slot}
	b := h.bucketOf(hi, lo)
	if b < 0 {
		if h.hasLast { // seq is unique, so only an engine bug reuses a key
			//lint:noalloc-ok panic formatting on the programming-error path only
			panic(fmt.Sprintf("sim: event (at=%v, seq=%d) pushed twice", ev.at, ev.seq))
		}
		h.atLast, h.hasLast = k, true
		return
	}
	if b < h.warmTo {
		h.warmTo = b // warm has not seen this key
	}
	h.add(b, k)
}

func (h *eventHeap) pushedBelowLast(ev event) {
	//lint:noalloc-ok panic formatting on the programming-error path only
	panic(fmt.Sprintf("sim: event (at=%v, seq=%d) pushed below the last popped key (at=%v, seq=%d)",
		ev.at, ev.seq, keyTime(h.lastHi), int64(h.lastLo)))
}

// popBefore removes and returns the minimum event if its time is before
// limit. Otherwise it leaves the queue untouched — last and warmTo
// included, since a sharded core's next inbox may push keys between limit
// and the minimum — and returns false with the minimum's time, or +Inf on
// an empty queue. Sequential runs pass +Inf as the limit.
func (h *eventHeap) popBefore(limit Time) (event, Time, bool) {
	if !h.hasLast {
		if h.summary == 0 {
			return event{}, infTime, false
		}
		w := bits.TrailingZeros64(h.summary)
		b := w<<6 | bits.TrailingZeros64(h.mask[w])
		low := &h.buckets[b]
		if at := keyTime(low.minHi); at >= limit {
			return event{}, at, false
		}
		if b >= h.warmTo {
			h.lookAhead(b)
		}
		h.lastHi, h.lastLo = low.minHi, low.minLo
		h.spread(b)
	} else if at := keyTime(h.lastHi); at >= limit {
		return event{}, at, false
	}

	k := h.atLast
	h.hasLast = false
	h.live--

	p := &h.slab[k.slot/pageSlots][k.slot%pageSlots]
	at := keyTime(k.hi)
	if p.negZero {
		at = Time(math.Copysign(0, -1))
	}
	ev := event{
		at:   at,
		seq:  int64(k.lo),
		kind: int(p.kind),
		node: int(p.node),
		d:    Delivery{Msg: p.msg, Port: int(p.port), SenderPort: int(p.sport), From: p.from},
	}
	p.msg = nil // do not pin the payload once it is delivered
	//lint:noalloc-ok the free list grows to the high-water mark of in-flight events, then reuses its array (reset keeps capacity)
	h.freeSlots = append(h.freeSlots, k.slot)
	return ev, at, true
}

func keyTime(hi uint64) Time { return Time(math.Float64frombits(hi)) }

// bucketOf returns the bucket of a key above last, ℓ·256 + d for the
// highest byte ℓ where the key differs from last and the key's digit d
// there, or -1 for a key equal to last.
func (h *eventHeap) bucketOf(hi, lo uint64) int {
	if x := hi ^ h.lastHi; x != 0 {
		s := uint(bits.Len64(x)-1) &^ 7 // the lowest bit of byte ℓ − 8 of hi
		return int(64+s)<<5 | int(uint8(hi>>s))
	}
	x := lo ^ h.lastLo
	if x == 0 {
		return -1
	}
	s := uint(bits.Len64(x)-1) &^ 7
	return int(s)<<5 | int(uint8(lo>>s))
}

// nextBucket returns the lowest non-empty bucket at or above b, or -1.
func (h *eventHeap) nextBucket(b int) int {
	if b >= numBuckets {
		return -1
	}
	w := b >> 6
	if m := h.mask[w] >> (b & 63); m != 0 {
		return b + bits.TrailingZeros64(m)
	}
	s := h.summary >> (w + 1) // Go shifts past the width give 0
	if s == 0 {
		return -1
	}
	w += 1 + bits.TrailingZeros64(s)
	return w<<6 | bits.TrailingZeros64(h.mask[w])
}

// spread empties bucket b into lower buckets after last moved to b's
// minimum. Every key of b agrees with the new last on b's byte and above,
// so it lands on a lower level, or in the last slot if it is the minimum;
// keys of higher buckets keep their bucket. Chunks return to the pool as
// soon as they are read.
func (h *eventHeap) spread(b int) {
	bk := &h.buckets[b]
	c, n := bk.tail, bk.n
	bk.n = 0
	w := b >> 6
	if h.mask[w] &^= 1 << (b & 63); h.mask[w] == 0 {
		h.summary &^= 1 << w
	}
	for {
		ch := h.chunks[c]
		h.moved += int64(n)
		for i := range ch[:n] {
			k := &ch[i]
			if d := h.bucketOf(k.hi, k.lo); d >= 0 {
				h.add(d, *k)
			} else {
				h.atLast, h.hasLast = *k, true
			}
		}
		older := h.link[c]
		h.releaseChunk(c)
		if older < 0 {
			return
		}
		c, n = older, chunkKeys
	}
}

// lookAhead runs before bucket b ≥ warmTo is spread. It gathers the keys
// of b and of the next non-empty buckets up, in key order, taking a bucket
// only if it fits in one chunk, until the batch holds warmMin keys (so
// never more than warmMin + chunkKeys − 1); it hands the batch to warm and
// moves warmTo past the last bucket gathered. So each key is warmed about
// once, a batch ahead of its pop: spreads only move keys down, and a push
// below warmTo lowers it. A bucket b of more than one chunk is spread
// unwarmed, and warmTo drops to 0, since its keys land below b.
func (h *eventHeap) lookAhead(b int) {
	n := 0
	for h.link[h.buckets[b].tail] < 0 {
		bk := &h.buckets[b]
		for _, k := range bk.keys[:bk.n] {
			h.ahead[n] = int32(k.slot)
			n++
		}
		h.warmTo = b + 1
		if n >= warmMin {
			break
		}
		if b = h.nextBucket(b + 1); b < 0 {
			break
		}
	}
	if n == 0 {
		h.warmTo = 0
		return
	}
	h.warm(n)
}

// warmMin is the batch lookAhead gathers.
const warmMin = 64

// warm is the queue's look-ahead: ahead[:n] holds the payload slots of
// the next keys to pop, in key order. Their payloads lie scattered over
// the slab, and their nodes' records and edges over the engine's tables.
// warm loads every cache line that popping those keys and handling their
// events will read, so that the misses overlap instead of stalling pop and
// the handlers one at a time. It runs in passes ordered by dependency,
// each writing what the next one needs into h.ahead, so no pass waits on
// a miss of its own:
//
//  1. payloads: both lines of a payload that straddles two — pop reads msg
//     at offset 0 and node and kind at 24 and 36, and in 3 of every 8
//     slots msg starts on the line before them — keeping each key's node;
//  2. records: each node's record, keeping the nodes still asleep, which
//     the event wakes (Setup.info, NewMachine, OnWake);
//  3. offsets: each sleeping node's EdgeStart entries, keeping the first
//     out-edge slot of each node that has one;
//  4. edge slots: that slot of EdgeTo, RevPort, edgeSeq, fifoLast and, in
//     sharded runs, EdgeShard, which the wake's sends read.
//
// Passes 2 to 4 need the engine's tables, so a queue used on its own runs
// pass 1 alone. They also run only on batches of at least warmTablesMin
// keys: a small batch, which lookAhead gathers only near the end of a
// queue or before a bucket too large to take whole, has few misses to
// overlap.
//
// The look-ahead writes only h.ahead, h.sink and the counter, which the
// loads feed so the compiler keeps them. A sharded core's queue holds only
// events for its own nodes, and a node's out-edge slots belong to the
// core that owns the node, so every load stays in the core's own ranges
// of the shared tables. Pass 3 drops a node without edges: its EdgeStart
// entry is the next node's first slot, which may be another core's.
func (h *eventHeap) warm(n int) {
	h.warmed += int64(n)
	var x uint8
	ahead := h.ahead[:n]
	for i, s := range ahead {
		p := &h.slab[uint32(s)/pageSlots][uint32(s)%pageSlots]
		var b uint8 // set as below, it compiles to a load and a flag, not a branch
		if p.msg != nil {
			b = 1
		}
		x ^= b ^ p.kind
		ahead[i] = p.node
	}
	t := &h.tables
	if n < warmTablesMin || t.nodes == nil {
		h.sink = x
		return
	}

	// Passes 2 and 3 keep an entry by writing it and advancing the count
	// by a flag, not by branching on the value just loaded.
	nodes, asleep := t.nodes, 0
	for _, v := range ahead {
		var b int
		if !nodes[v].awake {
			b = 1
		}
		ahead[asleep] = v
		asleep += b
	}
	edgeStart, slots := t.edgeStart, 0
	for _, v := range ahead[:asleep] {
		first := edgeStart[v]
		var b int
		if first < edgeStart[v+1] {
			b = 1
		}
		ahead[slots] = first
		slots += b
	}
	edgeTo, revPort, edgeSeq, fifoLast, edgeShard := t.edgeTo, t.revPort, t.edgeSeq, t.fifoLast, t.edgeShard
	for _, ei := range ahead[:slots] {
		x ^= uint8(edgeTo[ei]) ^ uint8(revPort[ei]) ^ uint8(edgeSeq[ei]) ^
			uint8(math.Float64bits(float64(fifoLast[ei])))
		if edgeShard != nil {
			x ^= edgeShard[ei]
		}
	}
	h.sink = x
}

// warmTablesMin is the smallest batch for which warm reads the engine's
// tables.
const warmTablesMin = 16

// add appends k to bucket b and folds it into the bucket's minimum.
func (h *eventHeap) add(b int, k queueKey) {
	bk := &h.buckets[b]
	if uint32(bk.n-1) >= chunkKeys-1 { // empty, or the newest chunk is full
		h.openChunk(b)
	}
	bk.keys[bk.n&(chunkKeys-1)] = k
	bk.n++
	if k.hi < bk.minHi || k.hi == bk.minHi && k.lo < bk.minLo {
		bk.minHi, bk.minLo = k.hi, k.lo
	}
}

// openChunk gives bucket b a fresh newest chunk, linking the previous one
// behind it; an empty bucket starts its list and its minimum afresh.
func (h *eventHeap) openChunk(b int) {
	bk := &h.buckets[b]
	c := h.takeChunk()
	if bk.n == 0 {
		h.link[c] = -1
		h.mask[b>>6] |= 1 << (b & 63)
		h.summary |= 1 << (b >> 6)
		bk.minHi, bk.minLo = math.MaxUint64, math.MaxUint64
	} else {
		h.link[c] = bk.tail
	}
	bk.keys, bk.tail, bk.n = h.chunks[c], c, 0
}

// takeChunk returns a free chunk index, growing the arena when the pool is
// empty. The arena's chunks are allocated a group at a time: spare holds
// the group's chunks not yet in the arena.
func (h *eventHeap) takeChunk() int32 {
	if n := len(h.freeChunks); n > 0 {
		c := h.freeChunks[n-1]
		h.freeChunks = h.freeChunks[:n-1]
		return c
	}
	if len(h.spare) == 0 {
		//lint:noalloc-ok the arena grows to ⌈live/64⌉ + 4096 chunks at the high-water mark, a group at a time, then the pool recycles them (reset keeps the arena)
		h.spare = new([chunkGroup]keyChunk)[:]
	}
	//lint:noalloc-ok grows with the arena above
	h.chunks = append(h.chunks, &h.spare[0])
	h.spare = h.spare[1:]
	//lint:noalloc-ok grows with the arena above
	h.link = append(h.link, -1)
	return int32(len(h.chunks) - 1)
}

func (h *eventHeap) releaseChunk(c int32) {
	//lint:noalloc-ok the pool grows to the arena size at most, then reuses its array (reset keeps capacity)
	h.freeChunks = append(h.freeChunks, c)
}
