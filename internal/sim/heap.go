package sim

import (
	"fmt"
	"math"
	"math/bits"

	"riseandshine/internal/graph"
)

// eventHeap is the engine's event queue: a radix heap (Ahuja,
// Mehlhorn, Orlin & Tarjan, JACM 1990) over the 128-bit key
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
// A key lives in bucket msb(key ⊕ last): bucket 0 holds keys equal to
// last, bucket b ≥ 1 keys whose highest bit differing from last is bit
// b−1. Pop takes from bucket 0; when it is empty, the minimum of the
// lowest non-empty bucket (each bucket keeps its minimum as keys arrive)
// becomes last, and that bucket is spread into lower buckets. Each key
// therefore moves at most 128 times, and in practice about 15 times on
// dense floods — sequential passes over small pointer-free keys instead
// of a sift with one DRAM miss per level.
//
// Keys are 24 bytes: the two key words and a slot in the payload slab,
// where the rest of the event — node, kind and the Delivery — is written
// once at push and read once at pop. Buckets are singly linked lists of
// fixed 256-key chunks from one pool shared by all 129 buckets; every
// chunk but a bucket's newest is full, so storage stays within
// ⌈live/256⌉ + 129 chunks of the live key count. The slab grows in pages
// of 1024 payloads, so neither structure ever copies to grow.
type eventHeap struct {
	lastHi, lastLo uint64 // last: the last popped key, (0, 0) after reset
	live           int    // events queued

	mask    [(numBuckets + 63) / 64]uint64 // bit b set: bucket b is non-empty
	buckets [numBuckets]bucketHead

	// The chunk arena: chunks[c] is chunk c, link[c] the next-older chunk
	// of its bucket (-1 for a bucket's oldest), and freeChunks the pool of
	// unused chunk indices.
	chunks     []*keyChunk
	link       []int32
	freeChunks []int32

	// The payload slab, in pages so that growing it never copies, the
	// number of slots it has handed out, and its LIFO free list of slots.
	slab      []*payloadPage
	slabLen   uint32
	freeSlots []uint32

	// tables are the engine tables warm loads ahead of delivery. The
	// engine points them at the current run's on every run
	// (engineCore.reset); a queue used on its own leaves them empty.
	tables engineTables
	ahead  [chunkKeys]int32 // warm's scratch: what one pass hands the next
	sink   uint8            // see warm
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
	numBuckets = 129 // bucket 0 plus one per bit of the 128-bit key
	chunkKeys  = 256
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
// reached through link, are full. An empty bucket has n = 0. Bucket 0
// holds only keys equal to last, so its minimum goes unused.
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
// chunk arena with its link table, the payload slab, and both free lists.
func (h *eventHeap) memBytes() int64 {
	return int64(len(h.chunks))*keyChunkBytes + int64(cap(h.chunks))*ptrBytes +
		int64(cap(h.link))*4 + int64(cap(h.freeChunks))*4 +
		int64(len(h.slab))*payloadPageBytes + int64(cap(h.slab))*ptrBytes +
		int64(cap(h.freeSlots))*4
}

// reset empties the queue, keeping the arena, the slab and the free lists
// for reuse. Payloads left by an aborted run are cleared so the queue does
// not pin their messages; a drained queue has cleared them at pop.
func (h *eventHeap) reset() {
	if h.live > 0 {
		for _, pg := range h.slab {
			clear(pg[:])
		}
	}
	h.lastHi, h.lastLo = 0, 0
	h.live = 0
	h.mask = [len(h.mask)]uint64{}
	h.buckets = [numBuckets]bucketHead{}
	h.freeChunks = h.freeChunks[:0]
	for c := len(h.chunks) - 1; c >= 0; c-- {
		//lint:noalloc-ok the free list grows to the arena size once, then every later reset reuses it
		h.freeChunks = append(h.freeChunks, int32(c))
	}
	h.slabLen = 0
	h.freeSlots = h.freeSlots[:0]
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
	h.add(h.bucketOf(hi, lo), queueKey{hi: hi, lo: lo, slot: slot})
	h.live++
}

func (h *eventHeap) pushedBelowLast(ev event) {
	//lint:noalloc-ok panic formatting on the programming-error path only
	panic(fmt.Sprintf("sim: event (at=%v, seq=%d) pushed below the last popped key (at=%v, seq=%d)",
		ev.at, ev.seq, keyTime(h.lastHi), int64(h.lastLo)))
}

// popBefore removes and returns the minimum event if its time is before
// limit. Otherwise it leaves the queue untouched — last included, since a
// sharded core's next inbox may push keys between limit and the minimum —
// and returns false with the minimum's time, or +Inf on an empty queue.
// Sequential runs pass +Inf as the limit.
func (h *eventHeap) popBefore(limit Time) (event, Time, bool) {
	bk := &h.buckets[0]
	if bk.n == 0 {
		b := h.lowestBucket()
		if b < 0 {
			return event{}, infTime, false
		}
		low := &h.buckets[b]
		if at := keyTime(low.minHi); at >= limit {
			return event{}, at, false
		}
		h.lastHi, h.lastLo = low.minHi, low.minLo
		h.spread(b)
	} else if at := keyTime(h.lastHi); at >= limit {
		return event{}, at, false
	}

	// Bucket 0 holds keys equal to last; take its newest.
	bk.n--
	k := bk.keys[uint8(bk.n)]
	if bk.n == 0 {
		c := bk.tail
		if older := h.link[c]; older >= 0 {
			bk.keys, bk.tail, bk.n = h.chunks[older], older, chunkKeys
		} else {
			bk.keys = nil
			h.mask[0] &^= 1
		}
		h.releaseChunk(c)
	}
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

// bucketOf returns msb(key ⊕ last): 0 when the key equals last, else one
// plus the index of the highest differing bit.
func (h *eventHeap) bucketOf(hi, lo uint64) int {
	if x := hi ^ h.lastHi; x != 0 {
		return 64 + bits.Len64(x)
	}
	return bits.Len64(lo ^ h.lastLo)
}

// lowestBucket returns the lowest non-empty bucket, or -1.
func (h *eventHeap) lowestBucket() int {
	for w, m := range h.mask {
		if m != 0 {
			return w*64 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// spread empties bucket b into lower buckets after last moved to b's
// minimum. Every key of b agrees with the old and the new last above bit
// b−1, so each lands strictly below b, and keys of higher buckets keep
// their bucket. Chunks return to the pool as soon as they are read.
func (h *eventHeap) spread(b int) {
	bk := &h.buckets[b]
	c, n := bk.tail, bk.n
	*bk = bucketHead{}
	h.mask[b>>6] &^= 1 << (b & 63)
	if h.link[c] < 0 {
		h.warm(h.chunks[c][:n])
	}
	for {
		ch := h.chunks[c]
		for i := range ch[:n] {
			k := &ch[i]
			h.add(h.bucketOf(k.hi, k.lo), *k)
		}
		older := h.link[c]
		h.releaseChunk(c)
		if older < 0 {
			return
		}
		c, n = older, chunkKeys
	}
}

// warm is the queue's look-ahead. A bucket that fits in one chunk holds
// the next keys to pop; their payloads lie scattered over the slab, and
// their nodes' records and edges over the engine's tables. warm loads
// every cache line that popping those keys and handling their events will
// read, so that the misses overlap instead of stalling pop and the
// handlers one at a time. It runs in passes ordered by dependency, each
// writing what the next one needs into h.ahead, so no pass waits on a miss
// of its own:
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
// keys: half of all spreads on a deep queue are of one-key buckets, a
// small batch has few misses to overlap, and on small runs, whose tables
// sit in cache, the passes are pure cost.
//
// The look-ahead writes only h.ahead and h.sink, which the loads feed so
// the compiler keeps them. A sharded core's queue holds only events for
// its own nodes, and a node's out-edge slots belong to the core that owns
// the node, so every load stays in the core's own ranges of the shared
// tables. Pass 3 drops a node without edges: its EdgeStart entry is the
// next node's first slot, which may be another core's.
func (h *eventHeap) warm(keys []queueKey) {
	var x uint8
	ahead := h.ahead[:len(keys)]
	for i := range keys {
		s := keys[i].slot
		p := &h.slab[s/pageSlots][s%pageSlots]
		var b uint8 // set as below, it compiles to a load and a flag, not a branch
		if p.msg != nil {
			b = 1
		}
		x ^= b ^ p.kind
		ahead[i] = p.node
	}
	t := &h.tables
	if len(keys) < warmTablesMin || t.nodes == nil {
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
	bk.keys[uint8(bk.n)] = k
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
		bk.minHi, bk.minLo = math.MaxUint64, math.MaxUint64
	} else {
		h.link[c] = bk.tail
	}
	bk.keys, bk.tail, bk.n = h.chunks[c], c, 0
}

// takeChunk returns a free chunk index, growing the arena when the pool is
// empty.
func (h *eventHeap) takeChunk() int32 {
	if n := len(h.freeChunks); n > 0 {
		c := h.freeChunks[n-1]
		h.freeChunks = h.freeChunks[:n-1]
		return c
	}
	//lint:noalloc-ok the arena grows to ⌈live/256⌉ + 129 chunks at the high-water mark, then the pool recycles them (reset keeps the arena)
	h.chunks = append(h.chunks, new(keyChunk))
	//lint:noalloc-ok grows with the arena above
	h.link = append(h.link, -1)
	return int32(len(h.chunks) - 1)
}

func (h *eventHeap) releaseChunk(c int32) {
	//lint:noalloc-ok the pool grows to the arena size at most, then reuses its array (reset keeps capacity)
	h.freeChunks = append(h.freeChunks, c)
}
