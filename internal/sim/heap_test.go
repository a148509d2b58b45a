package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"riseandshine/internal/graph"
)

// refQueue is the engine's original event queue verbatim: a container/heap
// implementation over the same (at, seq) key. It exists only as the
// differential-testing reference that pins the radix eventHeap to the old
// pop order, byte for byte.
type refQueue []event

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// len and pop are the tests' and benchmarks' view of the queue; the
// engine drains through popBefore alone.
func (h *eventHeap) len() int { return h.live }

// pop removes and returns the minimum event of a non-empty queue.
func (h *eventHeap) pop() event {
	ev, _, ok := h.popBefore(infTime)
	if !ok {
		panic("pop on an empty eventHeap")
	}
	return ev
}

// eventLess is the (at, seq) key order.
func eventLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// randomEvents mixes fresh timestamps with duplicates of earlier ones so
// the (at, ·) tie-break through seq is exercised heavily. All times are
// ≥ 0, so pushing them all before the first pop honours the queue's
// contract.
func randomEvents(rng *rand.Rand, n int) []event {
	evs := make([]event, n)
	for i := range evs {
		var at Time
		if i > 0 && rng.Intn(3) == 0 {
			at = evs[rng.Intn(i)].at // duplicate timestamp
		} else {
			at = Time(rng.Float64() * 10)
		}
		evs[i] = event{at: at, seq: int64(i), kind: evDeliver, node: i}
	}
	return evs
}

// monotoneTime draws the time of the next push under the queue's contract:
// at or above lastAt, the time of the last popped event. A third of the
// draws reuse an earlier pushed time (raised to lastAt when it is older),
// so duplicate times — and the tie-break through seq — stay common.
func monotoneTime(rng *rand.Rand, lastAt Time, ats []Time) Time {
	if len(ats) > 0 && rng.Intn(3) == 0 {
		if at := ats[rng.Intn(len(ats))]; at >= lastAt {
			return at
		}
		return lastAt
	}
	return lastAt + Time(rng.Float64()*10)
}

// wantBucket is the reference for eventHeap.bucketOf, computed bit by bit:
// the highest bit p where (hi, lo) differs from (lastHi, lastLo) picks
// level p/8, the key's own byte there is the digit, and the bucket is
// level·256 + digit; -1 for a key equal to last.
func wantBucket(hi, lo, lastHi, lastLo uint64) int {
	bit := func(hi, lo uint64, p int) uint64 {
		if p >= 64 {
			return hi >> (p - 64) & 1
		}
		return lo >> p & 1
	}
	for p := 127; p >= 0; p-- {
		if bit(hi, lo, p) != bit(lastHi, lastLo, p) {
			level := p / 8
			digit := 0
			for i := 7; i >= 0; i-- {
				digit = digit<<1 | int(bit(hi, lo, level*8+i))
			}
			return level*256 + digit
		}
	}
	return -1
}

// checkRadixInvariant verifies the queue's layout directly: every key in a
// bucket is above last and sits in the bucket wantBucket gives it; the
// last slot holds only a key equal to last; the non-empty mask and its
// summary word agree with the buckets; every chunk but a bucket's newest
// is full; every bucket keeps its true minimum; and the live count
// matches.
func checkRadixInvariant(t *testing.T, h *eventHeap) {
	t.Helper()
	count := 0
	if h.hasLast {
		if k := h.atLast; k.hi != h.lastHi || k.lo != h.lastLo {
			t.Fatalf("last slot holds (%#x, %#x), last is (%#x, %#x)", k.hi, k.lo, h.lastHi, h.lastLo)
		}
		count++
	}
	for w, m := range h.mask {
		if set := h.summary>>w&1 != 0; set != (m != 0) {
			t.Fatalf("summary bit %d is %v, mask word %d is %#x", w, set, w, m)
		}
	}
	for b := 0; b < numBuckets; b++ {
		bk := &h.buckets[b]
		if set := h.mask[b>>6]&(1<<(b&63)) != 0; set != (bk.n > 0) {
			t.Fatalf("bucket %d: mask bit %v with %d keys in the newest chunk", b, set, bk.n)
		}
		if bk.n == 0 {
			continue
		}
		if bk.n > chunkKeys || bk.keys != h.chunks[bk.tail] {
			t.Fatalf("bucket %d: newest chunk %d holds %d keys (pointer matches arena: %v)",
				b, bk.tail, bk.n, bk.keys == h.chunks[bk.tail])
		}
		minHi, minLo := uint64(math.MaxUint64), uint64(math.MaxUint64)
		c, n := bk.tail, bk.n
		for {
			for _, k := range h.chunks[c][:n] {
				if k.hi < h.lastHi || k.hi == h.lastHi && k.lo <= h.lastLo {
					t.Fatalf("bucket %d: key (%#x, %#x) not above last (%#x, %#x)", b, k.hi, k.lo, h.lastHi, h.lastLo)
				}
				if want := wantBucket(k.hi, k.lo, h.lastHi, h.lastLo); want != b {
					t.Fatalf("key (%#x, %#x) sits in bucket %d (level %d, digit %#x), belongs in %d (level %d, digit %#x); last (%#x, %#x)",
						k.hi, k.lo, b, b/256, b%256, want, want/256, want%256, h.lastHi, h.lastLo)
				}
				if k.hi < minHi || k.hi == minHi && k.lo < minLo {
					minHi, minLo = k.hi, k.lo
				}
				count++
			}
			if c = h.link[c]; c < 0 {
				break
			}
			n = chunkKeys
		}
		if bk.minHi != minHi || bk.minLo != minLo {
			t.Fatalf("bucket %d keeps minimum (%#x, %#x), holds (%#x, %#x)", b, bk.minHi, bk.minLo, minHi, minLo)
		}
	}
	if count != h.len() {
		t.Fatalf("buckets and the last slot hold %d keys, len() = %d", count, h.len())
	}
}

// TestEventHeapMatchesContainerHeap pops interleaved random pushes from the
// eventHeap and from the old container/heap queue and requires identical
// event sequences — the byte-identical-ordering guarantee of the rewrite.
// Pushes honour the contract the engine keeps and the queue enforces: no
// key below the last popped one.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var h eventHeap
		ref := &refQueue{}
		var lastAt Time
		var ats []Time
		var seq int64
		step := 0
		for seq < 200 || h.len() > 0 {
			if seq < 200 && (h.len() == 0 || rng.Intn(2) == 0) {
				ev := event{
					at: monotoneTime(rng, lastAt, ats), seq: seq, kind: evDeliver, node: int(seq),
					d: Delivery{Msg: testMsg{Seq: int(seq), bits: 3}, Port: 1 + int(seq)%7, SenderPort: 2, From: -1},
				}
				seq++
				ats = append(ats, ev.at)
				h.push(ev)
				heap.Push(ref, ev)
				continue
			}
			got := h.pop()
			want := heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("trial %d step %d: eventHeap popped %+v, container/heap popped %+v", trial, step, got, want)
			}
			lastAt = got.at
			checkRadixInvariant(t, &h)
			step++
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference queue retains %d events after eventHeap drained", trial, ref.Len())
		}
	}
}

// TestEventHeapPopsSortedOrder drains a batch of pushes and checks the pop
// sequence against sort.SliceStable on the (at, seq) key. Keys are unique
// (seq is), so sorted order is the unique correct answer for any queue.
func TestEventHeapPopsSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := randomEvents(rng, 500)
	var h eventHeap
	for _, ev := range evs {
		h.push(ev)
	}
	want := append([]event(nil), evs...)
	sort.SliceStable(want, func(i, j int) bool { return eventLess(&want[i], &want[j]) })
	for k, w := range want {
		got := h.pop()
		if got != w {
			t.Fatalf("pop %d: got %+v, want %+v", k, got, w)
		}
	}
	if h.len() != 0 {
		t.Fatalf("queue not empty after draining: %d left", h.len())
	}
}

// TestWakePushesKeepHeapOrdered pins the invariant RunAsync relies on when
// it seeds the queue from the wake schedule: push alone maintains the
// radix invariant (every key above last in the bucket of its highest byte
// differing from last, a key equal to last in the last slot), so no
// heapify step is needed before the event loop, and every pop keeps it.
// Wake times arrive unsorted here on purpose.
func TestWakePushesKeepHeapOrdered(t *testing.T) {
	wakes := []Wakeup{
		{Node: 3, At: 2.5}, {Node: 0, At: 0}, {Node: 7, At: 1.25},
		{Node: 1, At: 0}, {Node: 4, At: 9}, {Node: 2, At: 0.5},
	}
	var h eventHeap
	var seq int64
	for _, w := range wakes {
		h.push(event{at: w.At, seq: seq, kind: evWake, node: w.Node})
		seq++
		checkRadixInvariant(t, &h)
	}
	// Draining yields the wakes in (at, seq) order with no extra fix-up.
	var last event
	for i := 0; h.len() > 0; i++ {
		ev := h.pop()
		checkRadixInvariant(t, &h)
		if i > 0 && !eventLess(&last, &ev) {
			t.Fatalf("pop %d out of order: %+v after %+v", i, ev, last)
		}
		last = ev
	}
}

// TestEventHeapResetReusesBacking checks the reset contract: the chunk
// arena, the payload slab and the free lists survive, every chunk returns
// to the pool, no payload message stays referenced, and refilling the
// queue to the same depth allocates nothing new. It also checks that pop
// itself releases each message.
func TestEventHeapResetReusesBacking(t *testing.T) {
	fill := func(h *eventHeap) {
		for i := 0; i < 3000; i++ {
			h.push(event{at: Time(i % 97), seq: int64(i), kind: evDeliver, d: Delivery{Msg: testMsg{Seq: i}}})
		}
		for i := 0; i < 1000; i++ {
			h.pop()
		}
	}
	var h eventHeap
	fill(&h)
	chunks := append([]*keyChunk(nil), h.chunks...)
	pages := append([]*payloadPage(nil), h.slab...)
	h.reset()
	if h.len() != 0 {
		t.Fatalf("reset left %d events", h.len())
	}
	if h.lastHi != 0 || h.lastLo != 0 || h.hasLast || h.summary != 0 || h.mask != [len(h.mask)]uint64{} || h.warmTo != 0 {
		t.Fatalf("reset left last=(%#x, %d) slot %v summary %#x mask=%v warmTo %d",
			h.lastHi, h.lastLo, h.hasLast, h.summary, h.mask, h.warmTo)
	}
	if h.moved != 0 || h.warmed != 0 {
		t.Fatalf("reset left the work counters at moved %d, warmed %d", h.moved, h.warmed)
	}
	checkRadixInvariant(t, &h)
	if len(h.chunks) != len(chunks) || len(h.freeChunks) != len(chunks) {
		t.Fatalf("reset: arena %d chunks, pool %d, want both %d", len(h.chunks), len(h.freeChunks), len(chunks))
	}
	if len(h.slab) != len(pages) || h.slabLen != 0 || len(h.freeSlots) != 0 {
		t.Fatalf("reset: slab %d pages (want %d), %d slots handed out, %d free (want 0 and 0)",
			len(h.slab), len(pages), h.slabLen, len(h.freeSlots))
	}
	for i, pg := range h.slab {
		for j, p := range pg {
			if p.msg != nil {
				t.Fatalf("reset: slab page %d slot %d still references %v", i, j, p.msg)
			}
		}
	}
	fill(&h)
	if len(h.slab) != len(pages) || len(h.chunks) != len(chunks) {
		t.Fatalf("refill grew the storage: slab %d -> %d pages, arena %d -> %d chunks",
			len(pages), len(h.slab), len(chunks), len(h.chunks))
	}
	for i, c := range chunks {
		if h.chunks[i] != c {
			t.Fatalf("chunk %d was reallocated", i)
		}
	}
	for i, pg := range pages {
		if h.slab[i] != pg {
			t.Fatalf("slab page %d was reallocated", i)
		}
	}

	// Draining releases every message at pop, before any reset.
	for h.len() > 0 {
		h.pop()
	}
	for i, pg := range h.slab {
		for j, p := range pg {
			if p.msg != nil {
				t.Fatalf("drained queue: slab page %d slot %d still references %v", i, j, p.msg)
			}
		}
	}
}

// TestEventHeapPopBeforeLeavesQueue is the sharded window drain: when the
// minimum lies at or past the limit, popBefore reports its time and leaves
// the queue — last and the look-ahead's watermark included — untouched, so
// the next window's inbox may still push a key between the limit and that
// minimum, and it pops first.
func TestEventHeapPopBeforeLeavesQueue(t *testing.T) {
	var h eventHeap
	if _, next, ok := h.popBefore(1); ok || next != infTime {
		t.Fatalf("empty queue: popBefore = (%v, %v), want (+Inf, false)", next, ok)
	}
	for i, at := range []Time{1, 1.5, 3} {
		h.push(event{at: at, seq: int64(i), kind: evDeliver})
	}
	for _, want := range []Time{1, 1.5} {
		if ev, _, ok := h.popBefore(2); !ok || ev.at != want {
			t.Fatalf("popBefore(2) = (%v, %v), want (%v, true)", ev.at, ok, want)
		}
	}
	lastHi, lastLo, warmTo := h.lastHi, h.lastLo, h.warmTo
	for i := 0; i < 2; i++ { // a repeated probe must not move anything either
		if _, next, ok := h.popBefore(2); ok || next != 3 {
			t.Fatalf("popBefore(2) past the window = (%v, %v), want (3, false)", next, ok)
		}
		if h.len() != 1 || h.lastHi != lastHi || h.lastLo != lastLo || h.warmTo != warmTo {
			t.Fatalf("probe changed the queue: len %d, last (%#x, %d), warmTo %d, want 1, (%#x, %d), %d",
				h.len(), h.lastHi, h.lastLo, h.warmTo, lastHi, lastLo, warmTo)
		}
		checkRadixInvariant(t, &h)
	}
	h.push(event{at: 2.5, seq: 3, kind: evDeliver}) // the next window's inbox
	for _, want := range []Time{2.5, 3} {
		if ev, _, ok := h.popBefore(infTime); !ok || ev.at != want {
			t.Fatalf("popBefore(+Inf) = (%v, %v), want (%v, true)", ev.at, ok, want)
		}
	}

	// A key equal to last sits in the last slot; the limit applies there
	// too.
	h.reset()
	h.push(event{at: 0, seq: 0, kind: evWake})
	if _, next, ok := h.popBefore(0); ok || next != 0 {
		t.Fatalf("popBefore(0) on a time-0 key = (%v, %v), want (0, false)", next, ok)
	}
	if _, _, ok := h.popBefore(0.5); !ok {
		t.Fatal("popBefore(0.5) did not pop the time-0 key")
	}
}

// TestEventHeapNegativeZeroTiesZero pins the −0 fold: validateSchedule
// accepts a −0 wake time, the float order ties it with 0, so the pair must
// pop by seq — and the popped event keeps its sign bit, as the engine
// records wake times verbatim.
func TestEventHeapNegativeZeroTiesZero(t *testing.T) {
	negZero := Time(math.Copysign(0, -1))
	evs := []event{
		{at: 0.5, seq: 0, kind: evWake, node: 0},
		{at: 0, seq: 1, kind: evWake, node: 1},
		{at: negZero, seq: 2, kind: evWake, node: 2},
		{at: 0, seq: 3, kind: evWake, node: 3},
	}
	var h eventHeap
	ref := &refQueue{}
	for _, ev := range evs {
		h.push(ev)
		heap.Push(ref, ev)
	}
	for _, node := range []int{1, 2, 3, 0} {
		got := h.pop()
		want := heap.Pop(ref).(event)
		if got.node != node || want.node != node {
			t.Fatalf("popped node %d (reference %d), want %d", got.node, want.node, node)
		}
		if math.Signbit(float64(got.at)) != math.Signbit(float64(want.at)) || got != want {
			t.Fatalf("popped %+v, want %+v (sign bits must match)", got, want)
		}
	}

	// End to end: the −0 wake is recorded as −0 and wakes first by seq.
	res, err := RunAsync(Config{
		Setup:    setupOf(pairGraph(), Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule: wakeList{{Node: 1, At: negZero}, {Node: 0, At: 0}},
	}, floodAlg{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(float64(res.WakeAt[1])) || res.WakeAt[0] != 0 || math.Signbit(float64(res.WakeAt[0])) {
		t.Fatalf("WakeAt = %v, want [0 -0]", res.WakeAt)
	}
}

// wakeList is a fixed wake schedule.
type wakeList []Wakeup

func (w wakeList) Wakeups(*graph.Graph) []Wakeup { return w }

// TestEventHeapChunkBound checks the storage bound of the shared chunk
// pool: after a 10⁵-event burst and its drain, the arena and the spare
// chunks of its last group hold at most ⌈live/64⌉ + 4096 + chunkGroup − 1
// chunks of the peak live count, every arena chunk is back in the pool,
// and a second burst reuses them all.
func TestEventHeapChunkBound(t *testing.T) {
	const burst = 100_000
	bound := (burst+chunkKeys-1)/chunkKeys + numBuckets + chunkGroup - 1
	rng := rand.New(rand.NewSource(11))
	var h eventHeap
	for round := 0; round < 2; round++ {
		base := Time(round) // the second burst starts past the first's last pop
		for i := 0; i < burst; i++ {
			h.push(event{at: base + Time(rng.Float64()), seq: int64(round*burst + i), kind: evDeliver})
		}
		if c := len(h.chunks) + len(h.spare); c > bound {
			t.Fatalf("round %d: %d chunks after the burst, bound %d", round, c, bound)
		}
		var last event
		for i := 0; h.len() > 0; i++ {
			ev := h.pop()
			if i > 0 && !eventLess(&last, &ev) {
				t.Fatalf("round %d pop %d out of order: %+v after %+v", round, i, ev, last)
			}
			last = ev
		}
		if c := len(h.chunks) + len(h.spare); c > bound {
			t.Fatalf("round %d: %d chunks after the drain, bound %d", round, c, bound)
		}
		if len(h.freeChunks) != len(h.chunks) {
			t.Fatalf("round %d: %d of %d chunks back in the pool", round, len(h.freeChunks), len(h.chunks))
		}
	}
}

// TestEventHeapLayout pins the sizes the design and the memory report
// assume: a 24-byte key, a 40-byte payload, and a 64-key chunk of
// 1.5 KiB, which is exactly one allocator size class.
func TestEventHeapLayout(t *testing.T) {
	if k, p, c := unsafe.Sizeof(queueKey{}), unsafe.Sizeof(eventPayload{}), keyChunkBytes; k != 24 || p != 40 || c != 1536 {
		t.Fatalf("key %d B, payload %d B, chunk %d B; want 24, 40 and 1536", k, p, c)
	}
}

// boundaryKey returns the key that first differs from last at bit p of the
// 128-bit key (bits 64 to 127 are the time word, 0 to 63 seq): last's bits
// above p, bit p set, and the bits of low below p. ok is false when last's
// bit p is set, since no key above last first differs from it there.
func boundaryKey(lastHi, lastLo uint64, p int, lowHi, lowLo uint64) (hi, lo uint64, ok bool) {
	if p >= 64 {
		q := uint(p - 64)
		return lastHi>>(q+1)<<(q+1) | 1<<q | lowHi&(1<<q-1), lowLo, lastHi>>q&1 == 0
	}
	q := uint(p)
	return lastHi, lastLo>>(q+1)<<(q+1) | 1<<q | lowLo&(1<<q-1), lastLo>>q&1 == 0
}

// pushableTime reports whether a time word can be pushed: a non-negative
// time that is not NaN (+Inf is allowed).
func pushableTime(hi uint64) bool { return hi <= 0x7ff0_0000_0000_0000 }

// TestEventHeapDigitBoundaries places keys that first differ from a fixed
// last at each of the 128 bit positions — both words, every byte boundary,
// with the bits below the boundary all zero (digit 0x01 at a byte's lowest
// bit, from last = 0), all one (digit 0xFF at its highest) and random. It
// checks bucketOf against the bit-by-bit reference for every key, then
// pushes the keys a queue can take, shuffled, and pops them against sort
// with the layout checked after every pop; an off-by-one in the level or
// the digit fails both. Bit 127, the time's sign, is in the first check
// only: no pushed time is negative. FuzzEventHeap starts from the same
// keys.
func TestEventHeapDigitBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, last := range [][2]uint64{{0, 0}, {0x3f5a_5a5a_5a5a_5a5a, 0x5a5a_5a5a_5a5a_5a5a}} {
		var keys [][2]uint64
		seen := map[[2]uint64]bool{}
		digits := map[int]bool{} // level·256 + digit of every key placed
		probe := eventHeap{lastHi: last[0], lastLo: last[1]}
		for p := 0; p < 128; p++ {
			for _, low := range [][2]uint64{{0, 0}, {math.MaxUint64, math.MaxUint64}, {rng.Uint64(), rng.Uint64()}} {
				hi, lo, ok := boundaryKey(last[0], last[1], p, low[0], low[1])
				if !ok {
					continue
				}
				want := wantBucket(hi, lo, last[0], last[1])
				if want/256 != p/8 {
					t.Fatalf("reference: key (%#x, %#x) first differing at bit %d on level %d", hi, lo, p, want/256)
				}
				if got := probe.bucketOf(hi, lo); got != want {
					t.Fatalf("last (%#x, %#x), key (%#x, %#x) first differing at bit %d: bucketOf = %d (level %d, digit %#x), want %d (level %d, digit %#x)",
						last[0], last[1], hi, lo, p, got, got/256, got%256, want, want/256, want%256)
				}
				digits[want] = true
				if k := [2]uint64{hi, lo}; pushableTime(hi) && !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		if last == [2]uint64{} {
			for level := 0; level < 16; level++ {
				if !digits[level*256+0x01] || !digits[level*256+0xff] {
					t.Fatalf("level %d: digits 0x01 and 0xFF not both placed", level)
				}
			}
		}

		var h eventHeap
		h.push(event{at: Time(math.Float64frombits(last[0])), seq: int64(last[1])})
		h.pop() // last is now the fixed last
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for i, k := range keys {
			h.push(event{at: Time(math.Float64frombits(k[0])), seq: int64(k[1]), kind: evDeliver, node: i})
		}
		checkRadixInvariant(t, &h)
		order := make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			x, y := keys[order[a]], keys[order[b]]
			return x[0] < y[0] || x[0] == y[0] && x[1] < y[1]
		})
		for n, i := range order {
			ev := h.pop()
			if math.Float64bits(float64(ev.at)) != keys[i][0] || uint64(ev.seq) != keys[i][1] || ev.node != i {
				t.Fatalf("last (%#x, %#x) pop %d: got (%#x, %#x) node %d, want (%#x, %#x) node %d",
					last[0], last[1], n, math.Float64bits(float64(ev.at)), uint64(ev.seq), ev.node, keys[i][0], keys[i][1], i)
			}
			checkRadixInvariant(t, &h)
		}
	}
}

// TestEventHeapWorkCounts pins the queue's work counters, which depend on
// the pushes and pops alone, the way digests are pinned: the keys its
// spreads move and the keys it hands to warm, beside the events popped,
// on a single-source flood over a 16383-node tree with delays in
// [0.25, 1] and on a burst of 10⁵ keys at U(0,1] drained to the end. A
// change to the queue that moves them updates the pin and says why. With
// one-bit buckets the flood moved 7.08 keys and warmed 4.39 per event,
// and the burst 12.27 and 4.46 per key; byte digits read 2.84 and 1.01,
// and 3.81 and 1.00.
func TestEventHeapWorkCounts(t *testing.T) {
	eng := &Engine{}
	res, err := eng.Run(Config{
		Setup:    setupOf(graph.BinaryTree(16383), Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule: WakeSet{Nodes: []int{0}},
		Delays:   RandomDelay{Seed: 1, Min: 0.25},
		Seed:     1,
	}, floodAlg{})
	if err != nil {
		t.Fatal(err)
	}
	var burst eventHeap
	const n = 100_000
	for seq := int64(0); seq < n; seq++ {
		burst.push(event{at: uniformDelay(seq), seq: seq, kind: evDeliver})
	}
	for burst.len() > 0 {
		burst.pop()
	}
	q := &eng.cores[0].queue
	for _, c := range []struct {
		name                  string
		events, moved, warmed int64
		want                  [3]int64
	}{
		{"flood binary:16383", int64(res.Events), q.moved, q.warmed, [3]int64{32765, 93082, 32993}},
		{"burst-drain 1e5", n, burst.moved, burst.warmed, [3]int64{100000, 380524, 99903}},
	} {
		if got := [3]int64{c.events, c.moved, c.warmed}; got != c.want {
			t.Errorf("%s: events, keys moved, keys warmed = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestEventHeapPanicsBelowLast pins the enforced contract: a key below the
// last popped one (a smaller time, or a negative time on a fresh queue)
// can only come from an engine bug, and push panics on it.
func TestEventHeapPanicsBelowLast(t *testing.T) {
	cases := []struct {
		name string
		prep func(h *eventHeap)
		ev   event
	}{
		{"earlier time", func(h *eventHeap) {
			h.push(event{at: 1, seq: 0})
			h.push(event{at: 2, seq: 1})
			h.pop()
		}, event{at: 0.5, seq: 2}},
		{"same time, smaller seq", func(h *eventHeap) {
			h.push(event{at: 1, seq: 5})
			h.pop()
		}, event{at: 1, seq: 4}},
		{"negative time", func(*eventHeap) {}, event{at: -1, seq: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h eventHeap
			tc.prep(&h)
			defer func() {
				r := recover()
				if s, ok := r.(string); !ok || !strings.Contains(s, "below the last popped key") {
					t.Fatalf("push recovered %v, want the below-last panic", r)
				}
			}()
			h.push(tc.ev)
		})
	}
}

// FuzzEventHeap feeds adversarial push/pop scripts — including long runs of
// duplicate timestamps — through both queues and requires identical pops.
// A byte b with b%4 == 3 pops. A byte of 0x80 or more pushes the key that
// first differs from the current last at the bit the next byte names, its
// bits below from the rng, or all zero (b%4 == 0) or all one (b%4 == 1);
// bit 127, the time's sign, and bit 63, the seq's, never differ, and a key
// whose time would be NaN falls back to an ordinary push. Other bytes push
// at a coarse offset above the last popped time, or reuse an earlier
// time. Each push stays at or above the last popped key, the queue's
// contract.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 255, 2, 2}, int64(1))
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10}, int64(42))
	f.Add([]byte{}, int64(0))
	// TestEventHeapDigitBoundaries' keys from last = 0: every bit position
	// with zero and with one bits below it, then with random bits below it
	// against the last as it moves, with a pop after each push.
	for _, op := range []byte{0x80, 0x81, 0x82} {
		var script []byte
		for p := 0; p < 127; p++ {
			script = append(script, op, byte(p))
			if op == 0x82 {
				script = append(script, 3)
			}
		}
		f.Add(script, int64(op))
	}
	f.Fuzz(func(t *testing.T, script []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		ref := &refQueue{}
		pushed := map[[2]uint64]bool{}
		var seq int64
		var ats []Time
		var lastAt Time
		for i := 0; i < len(script); i++ {
			b := script[i]
			if b%4 == 3 && h.len() > 0 {
				got := h.pop()
				want := heap.Pop(ref).(event)
				if got != want {
					t.Fatalf("pop mismatch: eventHeap %+v, container/heap %+v", got, want)
				}
				lastAt = got.at
				continue
			}
			var hi, lo uint64
			ok := false
			if b >= 0x80 && i+1 < len(script) {
				i++
				low := [2]uint64{rng.Uint64(), rng.Uint64()}
				switch b % 4 {
				case 0:
					low = [2]uint64{}
				case 1:
					low = [2]uint64{math.MaxUint64, math.MaxUint64}
				}
				if p := int(script[i]) % 128; p != 63 && p != 127 {
					// Keep seq non-negative, as the reference compares it
					// signed: a time-word key takes the next seq, and a
					// seq-word key leaves its bit 63 clear.
					low[1] &= math.MaxInt64
					if p >= 64 {
						low[1] = uint64(seq)
					}
					hi, lo, ok = boundaryKey(h.lastHi, h.lastLo, p, low[0], low[1])
					ok = ok && pushableTime(hi) && !pushed[[2]uint64{hi, lo}]
				}
			}
			if !ok {
				// b selects a coarse offset above the last popped time so
				// collisions are common; some bytes reuse an existing
				// timestamp exactly (or the last popped one, if it is
				// older). At the last popped time, seq must pass last's.
				at := lastAt + Time(b%8)
				if b%4 == 2 && len(ats) > 0 {
					if at = ats[rng.Intn(len(ats))]; at < lastAt {
						at = lastAt
					}
				}
				hi, lo = math.Float64bits(float64(at)), uint64(seq)
				if hi == h.lastHi && lo <= h.lastLo {
					lo = h.lastLo + 1
				}
				for pushed[[2]uint64{hi, lo}] {
					lo++
				}
			}
			if lo >= math.MaxInt64 {
				continue // no larger non-negative seq would be left
			}
			pushed[[2]uint64{hi, lo}] = true
			if lo >= uint64(seq) {
				seq = int64(lo) + 1
			}
			at := Time(math.Float64frombits(hi))
			ats = append(ats, at)
			ev := event{at: at, seq: int64(lo), kind: evDeliver, node: int(b)}
			h.push(ev)
			heap.Push(ref, ev)
		}
		var last event
		first := true
		for h.len() > 0 {
			got := h.pop()
			want := heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("drain mismatch: eventHeap %+v, container/heap %+v", got, want)
			}
			if !first && !eventLess(&last, &got) {
				t.Fatalf("total order violated: %+v after %+v", got, last)
			}
			last, first = got, false
		}
		if ref.Len() != 0 {
			t.Fatalf("reference retains %d events", ref.Len())
		}
	})
}
