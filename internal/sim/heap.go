package sim

// eventHeap is the asynchronous engine's event queue: a monomorphic 4-ary
// min-heap over events ordered by the (at, seq) key. It replaces
// container/heap, whose interface-based Push/Pop box every event into an
// `any` and force a heap allocation per simulated message; here events move
// by value through a flat slice, so a steady-state push/pop pair allocates
// nothing.
//
// Sequence numbers are unique within a run, so (at, seq) is a strict total
// order and the pop sequence is exactly the sorted order of the pushed
// events — independent of heap arity or sift implementation. That makes the
// pop order byte-identical to the old container/heap queue; the
// differential test in heap_test.go pins this.
//
// 4-ary beats binary here because sift-down dominates (every pop sifts a
// leaf from the root) and a wider node halves the tree depth while the four
// child keys share cache lines.
type eventHeap struct {
	a []event
}

// less is the (at, seq) key order — the single ordering definition for the
// engine's event queue.
func eventLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func (h *eventHeap) len() int { return len(h.a) }

// peek returns the minimum event without removing it. It must not be
// called on an empty heap, and the pointer is valid only until the next
// push or pop. The sharded window drain peeks to decide whether the
// minimum still falls inside the window.
func (h *eventHeap) peek() *event { return &h.a[0] }

// memBytes reports the heap's backing array, for the memory report.
func (h *eventHeap) memBytes() int64 { return int64(cap(h.a)) * eventBytes }

// reset empties the heap, keeping the backing array for reuse; capacity is
// grown to at least the given hint so a warmed heap never reallocates.
func (h *eventHeap) reset(capacity int) {
	if cap(h.a) < capacity {
		h.a = make([]event, 0, capacity)
		return
	}
	h.a = h.a[:0]
}

// push adds ev, restoring the heap invariant by sifting up.
func (h *eventHeap) push(ev event) {
	//lint:noalloc-ok grows to the high-water mark of in-flight events, then reuses the array (reset keeps capacity)
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(&h.a[i], &h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// pop removes and returns the minimum event. It must not be called on an
// empty heap.
func (h *eventHeap) pop() event {
	a := h.a
	min := a[0]
	last := len(a) - 1
	a[0] = a[last]
	// Release the vacated slot's Delivery.Msg reference so a long-lived
	// reused heap does not pin the last run's payloads.
	a[last] = event{}
	a = a[:last]
	h.a = a
	// Sift the displaced element down: swap with the smallest of up to four
	// children until none is smaller.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		m := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if eventLess(&a[c], &a[m]) {
				m = c
			}
		}
		if !eventLess(&a[m], &a[i]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return min
}
