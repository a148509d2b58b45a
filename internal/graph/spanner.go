package graph

import "fmt"

// GreedySpanner builds a multiplicative (2k−1)-spanner of g using the
// classic greedy algorithm of Althöfer, Das, Dobkin, Joseph and Soares:
// scan the edges in a fixed order and keep edge {u,v} iff the current
// spanner distance between u and v exceeds 2k−1. The result has at most
// n^{1+1/k} + n edges (girth argument) and stretch at most 2k−1.
//
// The scan order is that of Edges: by first endpoint u, then by v. All of
// u's edges are decided against one BFS from u over the spanner so far,
// bounded at depth 2k−1 and grown lazily, only until the next neighbour v
// is reached or the ball is exhausted. Keeping {u,v} is the only change
// to the spanner while u is scanned, and it can only shorten distances
// from u, so the BFS is repaired by a bounded search from v at distance 1
// instead of restarted. Every decision therefore sees exactly the spanner
// distance the edge-by-edge algorithm would, and the kept edges (and
// their order) are the same; the cost falls from one BFS per edge to one
// per node plus the repairs.
//
// Theorem 6 of the paper encodes the incident edges of such a spanner as
// advice; this is the substrate for core.SpannerScheme.
func GreedySpanner(g *Graph, k int) (*Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: spanner parameter k must be >= 1, got %d", k)
	}
	return g.Subgraph(greedySpannerEdges(g, k))
}

// greedySpannerEdges returns the edges GreedySpanner keeps, in scan order.
func greedySpannerEdges(g *Graph, k int) [][2]int {
	n := g.N()
	// The spanner grows inside a copy of g's CSR layout: the kept
	// neighbours of x are nbr[off[x]:end[x]].
	end := append([]int32(nil), g.off[:n]...)
	b := newBoundedBFS(g.off[:n], end, make([]int32, len(g.nbr)), 2*min(k, n)-1, n)
	var kept [][2]int
	for u := 0; u < n; u++ {
		b.reset(u)
		for _, v := range g.Neighbors(u) {
			if int(v) < u || b.within(int(v)) {
				continue
			}
			b.nbr[end[u]], b.nbr[end[v]] = v, int32(u)
			end[u]++
			end[v]++
			b.shorten(int(v))
			kept = append(kept, [2]int{u, int(v)})
		}
	}
	return kept
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
