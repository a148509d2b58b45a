package sim

import "riseandshine/internal/graph"

// edgeFIFO addresses a network's directed edges through its port map,
// CSR-style as the engines do, and keeps the sends in flight on each edge
// in send order. It is the bookkeeping ModelCheck and CausalObserver share
// to match every delivery with the send it came from. Ports are compared
// as ints before they meet the int32 offsets, as in Setup.edge, so no
// out-of-range port wraps onto a valid edge.
type edgeFIFO[T any] struct {
	start, to []int32 // the port map's CSR arrays (graph.PortMap.CSR)
	queue     [][]T   // queue[e][head[e]:] is in flight on edge e
	head      []int
}

func newEdgeFIFO[T any](pm *graph.PortMap) edgeFIFO[T] {
	start, to, _ := pm.CSR()
	return edgeFIFO[T]{start: start, to: to, queue: make([][]T, len(to)), head: make([]int, len(to))}
}

// out returns the index of node v's out-edge behind port, or -1 when v is
// not a node or port is not one of its ports.
func (f *edgeFIFO[T]) out(v, port int) int {
	if v < 0 || v >= len(f.start)-1 {
		return -1
	}
	first := f.start[v]
	if port < 1 || port > int(f.start[v+1]-first) {
		return -1
	}
	return int(first) + port - 1
}

// in returns the sender of a delivery to node on port that the sender
// sent on senderPort, and the edge it crossed; the edge is -1 when the
// ports do not match the port map.
func (f *edgeFIFO[T]) in(node, port, senderPort int) (from, e int) {
	back := f.out(node, port)
	if back < 0 {
		return -1, -1
	}
	from = int(f.to[back])
	if e = f.out(from, senderPort); e >= 0 && int(f.to[e]) != node {
		e = -1
	}
	return from, e
}

func (f *edgeFIFO[T]) push(e int, x T) { f.queue[e] = append(f.queue[e], x) }

// pop removes and returns the oldest send in flight on edge e; ok is false
// when none is. A drained edge reuses its queue's storage.
func (f *edgeFIFO[T]) pop(e int) (x T, ok bool) {
	q, h := f.queue[e], f.head[e]
	if h == len(q) {
		return x, false
	}
	x = q[h]
	if h+1 == len(q) {
		f.queue[e], f.head[e] = q[:0], 0
	} else {
		f.head[e] = h + 1
	}
	return x, true
}
