package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On the shared 2-vCPU host the figures in
// README.md come from, the same pass took up to twice as long in some
// minutes as in others, and its CPU time grew as much as its wall time:
// the host ran slower, it did not hand the time to someone else. So while
// a run builds its inputs and while each pass runs, a gauge times short
// bursts of a reference — a fixed computation shaped like the workload's
// hot loop, written in this file and running no code of the repository, so
// that a change to the program leaves it alone — and the run scales the
// CPU time it measured by the nominal burst time over the reference's mean
// burst time in the same interval. A minute in which the host runs slow
// slows the reference as much and leaves the scaled figure where it was.

// gaugePeriod and the references' burst sizes keep the gauge to a few
// percent of one vCPU.
const gaugePeriod = 40 * time.Millisecond

// nominalBurst is the burst time, in CPU seconds, that scaled figures are
// given at. Each reference's burst is sized to take about that on the host
// README.md's figures come from.
const nominalBurst = 1e-3

// reference is one workload's reference computation.
type reference struct {
	// step runs one unit of the computation, a fraction of a millisecond,
	// and returns a checksum, which keeps the compiler from dropping it.
	step func() uint64
	// burst is the number of steps in one burst.
	burst int
	sink  uint64
}

// warmUp runs a reference's first bursts untimed: they fault in its pages
// and fill the caches, and on flood-1e6 the first pass read about 5% lower
// than the next two when it went without.
func (r *reference) warmUp() {
	for i := 0; i < 20*r.burst; i++ {
		r.sink += r.step()
	}
}

// gauge times bursts of a reference on its own goroutine, every
// gaugePeriod, until stopped.
type gauge struct {
	stop, done chan struct{}
	cpu        float64 // CPU seconds of the bursts
	bursts     int
}

func (r *reference) start() *gauge {
	g := &gauge{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		// The bursts are timed by this thread's own CPU clock.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(gaugePeriod)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			t0 := threadCPUSeconds()
			for i := 0; i < r.burst; i++ {
				r.sink += r.step()
			}
			g.cpu += threadCPUSeconds() - t0
			g.bursts++
		}
	}()
	return g
}

// scale stops the gauge and returns the factor that brings a CPU time
// measured while it ran to the nominal speed; 1 if it timed no burst.
func (g *gauge) scale() float64 {
	close(g.stop)
	<-g.done
	if g.bursts == 0 || g.cpu <= 0 {
		return 1
	}
	return nominalBurst / (g.cpu / float64(g.bursts))
}

// threadCPUSeconds is the CPU time of the calling thread. It reads
// CLOCK_THREAD_CPUTIME_ID, which the kernel brings up to date on every
// read; getrusage can lag the running thread by a scheduler tick, as long
// as a whole burst.
func threadCPUSeconds() float64 {
	return clockSeconds(3) // CLOCK_THREAD_CPUTIME_ID
}

// clockSeconds reads the clock_gettime clock id, 0 on error.
func clockSeconds(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}

// xorshift is the references' fixed pseudo-random source.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// unit is a pseudo-random delay in (0, 1].
func (x *xorshift) unit() float64 {
	return float64(x.next()>>11+1) / (1 << 53)
}

// bfsReference stands for table1, whose passes are mostly breadth-first
// searches (Graph.Diameter) and oracles on graphs of a few thousand nodes
// that fit in the core's cache: a step is a search from one source of a
// random graph shaped like the largest table1 graphs (2048 nodes, mean
// degree 20).
func bfsReference() *reference {
	const n, half = 2048, 10
	x := xorshift(0x9e3779b97f4a7c15)
	adj := make([][]int32, n)
	for v := int32(0); v < n; v++ {
		for i := 0; i < half; i++ {
			u := int32(x.next() % n)
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], v)
		}
	}
	off := make([]int32, n+1)
	var nbr []int32
	for v, a := range adj {
		off[v+1] = off[v] + int32(len(a))
		nbr = append(nbr, a...)
	}
	dist := make([]int32, n)
	queue := make([]int32, n)
	src := int32(0)
	return &reference{burst: 8, step: func() uint64 {
		for i := range dist {
			dist[i] = -1
		}
		src = (src + 1) % n
		dist[src], queue[0] = 0, src
		head, tail := 0, 1
		for head < tail {
			v := queue[head]
			head++
			for _, u := range nbr[off[v]:off[v+1]] {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue[tail] = u
					tail++
				}
			}
		}
		return uint64(dist[queue[tail-1]])
	}}
}

// event is a reference message: its delivery time, a tie-break sequence
// number and its destination.
type event struct {
	at  float64
	seq uint64
	to  int32
}

// eventHeap is a 4-ary min-heap on (at, seq), the shape of the engine's
// default queue.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		p := (j - 1) / 4
		if !q.less(j, p) {
			break
		}
		q[j], q[p] = q[p], q[j]
		j = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for j := 0; ; {
		c := 4*j + 1
		if c >= len(q) {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < len(q); k++ {
			if q.less(k, m) {
				m = k
			}
		}
		if !q.less(m, j) {
			break
		}
		q[j], q[m] = q[m], q[j]
		j = m
	}
	*h = q
	return top
}

// denseReference stands for flood-dense, whose time goes to a queue
// holding millions of events: a heap of a million messages to 2000 nodes,
// kept full, where a step delivers 256 messages, each one sending the
// next with a random delay.
func denseReference() *reference {
	const n, depth = 2000, 1 << 20
	x := xorshift(0x2545f4914f6cdd1d)
	h := make(eventHeap, 0, depth)
	seq := uint64(0)
	for ; seq < depth; seq++ {
		h.push(event{x.unit(), seq, int32(seq % n)})
	}
	recv := make([]int32, n)
	return &reference{burst: 6, step: func() uint64 {
		for i := 0; i < 256; i++ {
			e := h.pop()
			recv[e.to]++
			h.push(event{e.at + x.unit(), seq, int32(x.next() % n)})
			seq++
		}
		return uint64(recv[0])
	}}
}

// treeReference stands for flood-1e6, whose time goes to the state of a
// million nodes behind a shallow queue: a step floods, with delays in
// (0.25, 1], the 1023-node subtree under a pseudo-random node at depth 10
// of the binary tree on 2^20 nodes, the frontier in a heap and each node's
// wake time in arrays that span the whole tree. Every step does the same
// amount of work, so a burst costs the same in every phase of a run.
func treeReference() *reference {
	const n, top = 1 << 20, 10
	wake := make([]float64, n)
	round := make([]int32, n) // the step that woke the node
	for v := range round {
		// Writing every entry faults the pages in now; a step touches
		// only a few of them.
		wake[v], round[v] = -1, -1
	}
	cur := int32(0)
	h := make(eventHeap, 0, 1<<10)
	x := xorshift(0x853c49e6748fea9b)
	seq := uint64(0)
	send := func(at float64, to int32) {
		if to < n && round[to] != cur {
			h.push(event{at + 0.25 + 0.75*x.unit(), seq, to})
			seq++
		}
	}
	return &reference{burst: 8, step: func() uint64 {
		cur++
		root := int32(1<<top - 1 + x.next()%(1<<top))
		round[root], wake[root] = cur, 0
		send(0, 2*root+1)
		send(0, 2*root+2)
		for len(h) > 0 {
			e := h.pop()
			if round[e.to] == cur {
				continue
			}
			round[e.to], wake[e.to] = cur, e.at
			send(e.at, (e.to-1)/2)
			send(e.at, 2*e.to+1)
			send(e.at, 2*e.to+2)
		}
		return uint64(seq)
	}}
}
