package graph

import "fmt"

// GreedySpanner builds a multiplicative (2k−1)-spanner of g using the
// classic greedy algorithm of Althöfer, Das, Dobkin, Joseph and Soares:
// scan the edges in a fixed order and keep edge {u,v} iff the current
// spanner distance between u and v exceeds 2k−1. The result has at most
// n^{1+1/k} + n edges (girth argument) and stretch at most 2k−1.
//
// The scan order is that of Edges: by first endpoint u, then by v. Beside
// the spanner it keeps the spanner's connected components, each with a
// root, and for every node x an upper bound h(x) on its spanner distance
// to its component's root. Most edges are decided from these alone:
//
//   - u and v in one component with h(u) + h(v) ≤ 2k−1 are joined by a
//     spanner path through the root no longer than 2k−1, so {u,v} is
//     rejected;
//   - u and v in different components are at infinite spanner distance,
//     so {u,v} is kept.
//
// Both verdicts are exact: every bound is the length of a real spanner
// path, and a kept edge only shortens paths, so a bound that said "within
// 2k−1" stays true. When a kept edge joins two components, the smaller
// one is relabelled by a BFS from its endpoint over its own spanner
// edges, each node's new bound being the other endpoint's bound plus one
// plus its hop count; so h(x) ≤ |component(x)| − 1 ≤ n − 1, and by union
// by size every node is relabelled at most log₂ n times, so the forest
// costs O((n + |S|) log n) for the kept edge set S. A kept edge inside
// one component lowers its endpoints' bounds if it can.
//
// The remaining edges, in one component with bounds too high to tell, are
// decided by one BFS from u over the spanner so far, bounded at depth
// 2k−1, started at u's first such edge and grown lazily, only until the
// next neighbour v is reached or the ball is exhausted. Keeping {u,v} is
// the only change to the spanner while u is scanned, and it can only
// shorten distances from u, so the BFS is repaired by a bounded search
// from v at distance 1 instead of restarted. An edge the forest keeps
// before u's search has started just joins the spanner, which the search
// reads when it expands u. Every decision therefore sees exactly the
// spanner distance the edge-by-edge algorithm would, and the kept edges
// (and their order) are the same; the cost falls from one BFS per edge to
// one per node that needs it plus the repairs. On RandomConnected(n, 0.05)
// at k = ⌈log₂ n⌉, n = 256 … 2048, the spanner is a spanning tree and the
// forest decides at least 97 % of the edges.
//
// Theorem 6 of the paper encodes the incident edges of such a spanner as
// advice; this is the substrate for core.SpannerScheme.
func GreedySpanner(g *Graph, k int) (*Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: spanner parameter k must be >= 1, got %d", k)
	}
	kept, _ := greedySpannerEdges(g, k)
	return g.Subgraph(kept)
}

// greedySpannerEdges returns the edges GreedySpanner keeps, in scan order,
// and how many edges were decided by the bounded BFS rather than the
// forest.
func greedySpannerEdges(g *Graph, k int) (kept [][2]int, searched int) {
	n := g.N()
	k = min(k, n) // no spanner distance reaches n
	stretch := 2*k - 1
	// The spanner grows inside a copy of g's CSR layout: the kept
	// neighbours of x are nbr[off[x]:end[x]].
	end := append([]int32(nil), g.off[:n]...)
	b := newBoundedBFS(g.off[:n], end, make([]int32, len(g.nbr)), stretch, n)
	f := newSpannerForest(b)
	for u := 0; u < n; u++ {
		started := false // whether b holds a search from u
		for _, v := range g.Neighbors(u) {
			if int(v) < u {
				continue
			}
			if cu, cv := f.comp[u], f.comp[v]; cu == cv {
				if int(f.h[u])+int(f.h[v]) <= stretch {
					continue
				}
				if !started {
					b.reset(u)
					started = true
				}
				searched++
				if b.within(int(v)) {
					continue
				}
			} else if started {
				b.within(int(v)) // exhausts the ball, which v is not in
			}
			b.nbr[end[u]], b.nbr[end[v]] = v, int32(u)
			end[u]++
			end[v]++
			if started {
				b.shorten(int(v))
			}
			f.join(int32(u), v)
			kept = append(kept, [2]int{u, int(v)})
		}
	}
	return kept, searched
}

// spannerForest is the component structure GreedySpanner decides most
// edges from: per node its component's label and a bound h on its
// spanner distance to the component's root; per label the component's
// size. It reads the spanner from the search's CSR.
type spannerForest struct {
	b             *boundedBFS
	comp, h, size []int32
	queue         []int32 // the relabelling BFS
}

// newSpannerForest returns n singleton components, each node its own
// root at distance 0.
func newSpannerForest(b *boundedBFS) *spannerForest {
	n := len(b.dist)
	f := &spannerForest{
		b:     b,
		comp:  make([]int32, n),
		h:     make([]int32, n),
		size:  make([]int32, n),
		queue: make([]int32, 0, n),
	}
	for x := range f.comp {
		f.comp[x], f.size[x] = int32(x), 1
	}
	return f
}

// join records the kept edge {u,v}, already in the spanner.
func (f *spannerForest) join(u, v int32) {
	cu, cv := f.comp[u], f.comp[v]
	if cu == cv {
		f.h[u] = min(f.h[u], f.h[v]+1)
		f.h[v] = min(f.h[v], f.h[u]+1)
		return
	}
	if f.size[cu] < f.size[cv] {
		u, v, cu, cv = v, u, cv, cu
	}
	// Relabel v's component, the smaller, by a BFS from v that does not
	// cross the new edge: u is labelled cu already.
	f.size[cu] += f.size[cv]
	f.comp[v], f.h[v] = cu, f.h[u]+1
	q := append(f.queue[:0], v)
	for i := 0; i < len(q); i++ {
		x := q[i]
		hy := f.h[x] + 1
		for _, y := range f.b.nbr[f.b.off[x]:f.b.end[x]] {
			if f.comp[y] == cv {
				f.comp[y], f.h[y] = cu, hy
				q = append(q, y)
			}
		}
	}
	f.queue = q
}

// VerifyStretch checks that the spanner s (a subgraph of g on the same node
// set) has multiplicative stretch at most t: for every edge {u,v} of g,
// dist_s(u,v) ≤ t. For connected g this implies dist_s(u,v) ≤ t·dist_g(u,v)
// for all pairs.
//
// Like GreedySpanner it runs one lazily grown BFS from each node u over s,
// bounded at depth t, and answers all of u's edges from it: O(n·(n+m_s))
// in the worst case instead of one BFS, and an n-entry table, per edge.
// It reports the first violating edge in Edges order.
func VerifyStretch(g, s *Graph, t int) error {
	if g.N() != s.N() {
		return fmt.Errorf("graph: node count mismatch %d vs %d", g.N(), s.N())
	}
	n := s.N()
	if n == 0 {
		return nil
	}
	b := newBoundedBFS(s.off[:n], s.off[1:], s.nbr, t, n)
	for u := 0; u < n; u++ {
		b.reset(u)
		for _, v := range g.Neighbors(u) {
			if int(v) > u && !b.within(int(v)) {
				return fmt.Errorf("graph: edge {%d,%d} stretched beyond %d in spanner", u, v, t)
			}
		}
	}
	return nil
}

// boundedBFS is a breadth-first search from one source, cut off at depth
// limit and grown on demand: within(v) expands the ball only until v is
// reached, and the next query resumes where the last one stopped. The
// graph is a CSR whose node x has neighbours nbr[off[x]:end[x]], so it
// serves both a finished Graph and a spanner under construction.
type boundedBFS struct {
	off, end, nbr []int32
	limit         int32
	dist          []int32 // distance from the source, -1 outside the ball
	queue         []int32 // ball nodes in BFS order; also the reset list
	head          int     // queue[:head] are expanded
}

// newBoundedBFS returns a search over an n-node CSR with depth limit
// clamped to [0, n]: no distance reaches n, so a larger limit changes
// nothing.
func newBoundedBFS(off, end, nbr []int32, limit, n int) *boundedBFS {
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	return &boundedBFS{
		off: off, end: end, nbr: nbr,
		limit: int32(max(0, min(limit, n))),
		dist:  dist,
		queue: make([]int32, 0, n),
	}
}

// reset starts a new search from src.
func (b *boundedBFS) reset(src int) {
	for _, x := range b.queue {
		b.dist[x] = -1
	}
	b.dist[src] = 0
	b.queue = append(b.queue[:0], int32(src))
	b.head = 0
}

// within reports whether v is at most limit hops from the source.
func (b *boundedBFS) within(v int) bool {
	for b.dist[v] == -1 && b.head < len(b.queue) {
		x := b.queue[b.head]
		dx := b.dist[x]
		if dx >= b.limit {
			b.head = len(b.queue) // the rest of the queue is at the limit
			break
		}
		b.head++
		for _, y := range b.nbr[b.off[x]:b.end[x]] {
			if b.dist[y] == -1 {
				b.dist[y] = dx + 1
				b.queue = append(b.queue, y)
			}
		}
	}
	return b.dist[v] != -1
}

// shorten accounts for a new edge from the source to v, which within has
// just found outside the ball: the ball is fully expanded, so a bounded
// BFS from v at distance 1, entering only nodes it brings closer, leaves
// every distance up to the limit exact again.
func (b *boundedBFS) shorten(v int) {
	i := len(b.queue)
	b.dist[v] = 1
	b.queue = append(b.queue, int32(v))
	for ; i < len(b.queue); i++ {
		x := b.queue[i]
		dx := b.dist[x]
		if dx >= b.limit {
			break // the repair queue is in BFS order too
		}
		for _, y := range b.nbr[b.off[x]:b.end[x]] {
			if d := b.dist[y]; d == -1 || d > dx+1 {
				b.dist[y] = dx + 1
				b.queue = append(b.queue, y)
			}
		}
	}
	b.head = len(b.queue)
}
