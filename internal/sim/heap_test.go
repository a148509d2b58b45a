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

// checkRadixInvariant verifies the radix-heap invariant directly: every
// queued key is at or above last and sits in bucket msb(key ⊕ last), the
// non-empty mask matches the buckets, every chunk but a bucket's newest is
// full, each bucket above 0 keeps its true minimum, and the live count
// matches.
func checkRadixInvariant(t *testing.T, h *eventHeap) {
	t.Helper()
	count := 0
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
				if k.hi < h.lastHi || k.hi == h.lastHi && k.lo < h.lastLo {
					t.Fatalf("bucket %d: key (%#x, %d) below last (%#x, %d)", b, k.hi, k.lo, h.lastHi, h.lastLo)
				}
				if got := h.bucketOf(k.hi, k.lo); got != b {
					t.Fatalf("key (%#x, %d) sits in bucket %d, msb(key ⊕ last) is %d", k.hi, k.lo, b, got)
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
		if b > 0 && (bk.minHi != minHi || bk.minLo != minLo) {
			t.Fatalf("bucket %d keeps minimum (%#x, %d), holds (%#x, %d)", b, bk.minHi, bk.minLo, minHi, minLo)
		}
	}
	if count != h.len() {
		t.Fatalf("buckets hold %d keys, len() = %d", count, h.len())
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
// radix invariant (every key at or above last, in bucket msb(key ⊕ last)),
// so no heapify step is needed before the event loop, and every pop keeps
// it. Wake times arrive unsorted here on purpose.
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
	if h.lastHi != 0 || h.lastLo != 0 || h.mask != [len(h.mask)]uint64{} {
		t.Fatalf("reset left last=(%#x, %d) mask=%v", h.lastHi, h.lastLo, h.mask)
	}
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
// the queue — last included — untouched, so the next window's inbox may
// still push a key between the limit and that minimum, and it pops first.
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
	lastHi, lastLo := h.lastHi, h.lastLo
	for i := 0; i < 2; i++ { // a repeated probe must not move anything either
		if _, next, ok := h.popBefore(2); ok || next != 3 {
			t.Fatalf("popBefore(2) past the window = (%v, %v), want (3, false)", next, ok)
		}
		if h.len() != 1 || h.lastHi != lastHi || h.lastLo != lastLo {
			t.Fatalf("probe changed the queue: len %d, last (%#x, %d), want 1, (%#x, %d)",
				h.len(), h.lastHi, h.lastLo, lastHi, lastLo)
		}
		checkRadixInvariant(t, &h)
	}
	h.push(event{at: 2.5, seq: 3, kind: evDeliver}) // the next window's inbox
	for _, want := range []Time{2.5, 3} {
		if ev, _, ok := h.popBefore(infTime); !ok || ev.at != want {
			t.Fatalf("popBefore(+Inf) = (%v, %v), want (%v, true)", ev.at, ok, want)
		}
	}

	// A key equal to last sits in bucket 0; the limit applies there too.
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
		Graph:     pairGraph(),
		Model:     Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{Schedule: wakeList{{Node: 1, At: negZero}, {Node: 0, At: 0}}},
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
// pool: after a 10⁵-event burst and its drain, the arena holds at most
// ⌈live/256⌉ + 129 chunks of the peak live count, every chunk is back in
// the pool, and a second burst reuses them all.
func TestEventHeapChunkBound(t *testing.T) {
	const burst = 100_000
	bound := (burst+chunkKeys-1)/chunkKeys + numBuckets
	rng := rand.New(rand.NewSource(11))
	var h eventHeap
	for round := 0; round < 2; round++ {
		base := Time(round) // the second burst starts past the first's last pop
		for i := 0; i < burst; i++ {
			h.push(event{at: base + Time(rng.Float64()), seq: int64(round*burst + i), kind: evDeliver})
		}
		if len(h.chunks) > bound {
			t.Fatalf("round %d: %d chunks after the burst, bound %d", round, len(h.chunks), bound)
		}
		var last event
		for i := 0; h.len() > 0; i++ {
			ev := h.pop()
			if i > 0 && !eventLess(&last, &ev) {
				t.Fatalf("round %d pop %d out of order: %+v after %+v", round, i, ev, last)
			}
			last = ev
		}
		if len(h.chunks) > bound {
			t.Fatalf("round %d: %d chunks after the drain, bound %d", round, len(h.chunks), bound)
		}
		if len(h.freeChunks) != len(h.chunks) {
			t.Fatalf("round %d: %d of %d chunks back in the pool", round, len(h.freeChunks), len(h.chunks))
		}
	}
}

// TestEventHeapLayout pins the sizes the design and the memory report
// assume: a 24-byte key, a 40-byte payload, and a 256-key chunk of
// 6 KiB, which is exactly one allocator size class.
func TestEventHeapLayout(t *testing.T) {
	if k, p, c := unsafe.Sizeof(queueKey{}), unsafe.Sizeof(eventPayload{}), keyChunkBytes; k != 24 || p != 40 || c != 6144 {
		t.Fatalf("key %d B, payload %d B, chunk %d B; want 24, 40 and 6144", k, p, c)
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
// Each push stays at or above the last popped time, the queue's contract.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 255, 2, 2}, int64(1))
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10}, int64(42))
	f.Add([]byte{}, int64(0))
	f.Fuzz(func(t *testing.T, script []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		ref := &refQueue{}
		var seq int64
		var ats []Time
		var lastAt Time
		for _, b := range script {
			if b%4 == 3 && h.len() > 0 {
				got := h.pop()
				want := heap.Pop(ref).(event)
				if got != want {
					t.Fatalf("pop mismatch: eventHeap %+v, container/heap %+v", got, want)
				}
				lastAt = got.at
				continue
			}
			// b selects a coarse offset above the last popped time so
			// collisions are common; some bytes reuse an existing
			// timestamp exactly (or the last popped one, if it is older).
			at := lastAt + Time(b%8)
			if b%4 == 2 && len(ats) > 0 {
				if at = ats[rng.Intn(len(ats))]; at < lastAt {
					at = lastAt
				}
			}
			ats = append(ats, at)
			ev := event{at: at, seq: seq, kind: evDeliver, node: int(b)}
			seq++
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
