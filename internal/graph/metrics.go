package graph

import "slices"

// bfsScratch is the reusable state of one breadth-first search: an int32
// distance table and a queue, both recycled between runs, so a metric
// running several searches (Diameter's sweeps) allocates them once.
type bfsScratch struct {
	dist  []int32
	queue []int32
}

func newBFSScratch(n int) *bfsScratch {
	return &bfsScratch{dist: make([]int32, n), queue: make([]int32, 0, n)}
}

// run executes a BFS from the source set and returns the maximum finite
// distance together with the number of reached nodes. Sources listed twice
// count once. The scratch's dist table holds the distances (-1 means
// unreachable) until the next run.
func (s *bfsScratch) run(g *Graph, sources ...int) (max int32, reached int) {
	for i := range s.dist {
		s.dist[i] = -1
	}
	q := s.queue[:0]
	for _, src := range sources {
		if s.dist[src] == -1 {
			s.dist[src] = 0
			q = append(q, int32(src))
		}
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		dv := s.dist[v]
		if dv > max {
			max = dv
		}
		for _, w := range g.Neighbors(int(v)) {
			if s.dist[w] == -1 {
				s.dist[w] = dv + 1
				q = append(q, w)
			}
		}
	}
	s.queue = q
	return max, len(q)
}

// BFSFrom returns the hop distances from the source set. Unreachable nodes
// get distance -1. The source set may be empty, in which case all distances
// are -1.
func (g *Graph) BFSFrom(sources []int) []int {
	s := newBFSScratch(g.N())
	s.run(g, sources...)
	dist := make([]int, g.N())
	for i, d := range s.dist {
		dist[i] = int(d)
	}
	return dist
}

// BFSTree computes a breadth-first spanning tree rooted at root. It returns
// parent[v] (the BFS parent index, -1 for the root and unreachable nodes)
// and dist[v] (hop distance, -1 if unreachable). Ties between candidate
// parents break toward the smaller node index, making the tree
// deterministic for a given graph.
func (g *Graph) BFSTree(root int) (parent, dist []int) {
	n := g.N()
	parent = make([]int, n)
	dist = make([]int, n)
	for i := range parent {
		parent[i] = -1
		dist[i] = -1
	}
	dist[root] = 0
	queue := make([]int, 0, n)
	queue = append(queue, root)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				parent[w] = v
				queue = append(queue, int(w))
			}
		}
	}
	return parent, dist
}

// Eccentricity returns the maximum hop distance from v to any node, or -1
// if some node is unreachable from v.
func (g *Graph) Eccentricity(v int) int {
	s := newBFSScratch(g.N())
	return eccentricity(g, s, v)
}

func eccentricity(g *Graph, s *bfsScratch, v int) int {
	max, reached := s.run(g, v)
	if reached != g.N() {
		return -1
	}
	return int(max)
}

// Diameter returns the exact diameter. It returns ErrDisconnected for
// disconnected graphs.
//
// The first call computes the answer (see diameter) and the graph keeps
// it, so later calls, on the graph or on its clones, cost one atomic load.
// Safe for concurrent use.
func (g *Graph) Diameter() (int, error) {
	switch memo := g.diam.Load(); {
	case memo > 0:
		return int(memo - 1), nil
	case memo < 0:
		return 0, ErrDisconnected
	}
	d, err := diameter(g)
	if err != nil {
		g.diam.Store(-1)
	} else {
		g.diam.Store(int32(d + 1))
	}
	return d, err
}

// diameter computes g's exact diameter, or ErrDisconnected.
//
// It squeezes the answer between a lower and an upper bound (iFUB;
// Crescenzi, Grossi, Habib, Lanzi and Marino, TCS 2013). A double sweep —
// a BFS from node 0, then one from the farthest node a it reaches — gives
// the lower bound ecc(a) and a farthest node b. u is the middle node, by
// index, of the nodes at distance ⌊ecc(a)/2⌋ from a that lie on an a–b
// shortest path (a walk along one such path would, on a grid, follow the
// border to a node as far from the far corner as the diameter), and a
// third BFS gives every node x its level dist(u, x). Two nodes whose
// levels are both at most h are at most 2h apart, through u. So Diameter
// computes eccentricities in decreasing level order and stops as soon as
// the largest one found is at least 2h, where h is the highest level not
// yet used as a source: every pair with an endpoint already used is
// bounded by that endpoint's eccentricity, and every other pair by 2h.
// The answer is therefore exact, whichever node u is. A tree of even
// diameter stops after the three sweeps (u is its centre), one of odd
// diameter after the sources of the top level, and a low-diameter random
// graph after the sources above its middle levels.
//
// The eccentricities are computed 64 sources at a time by a bit-parallel
// BFS (MS-BFS; Then et al., VLDB 2014): each node holds one uint64 of
// seen, frontier and next-frontier bits, bit i for source i. A level runs
// top-down, where one scan of a frontier node's edges advances every
// source that reached it, or bottom-up (direction-optimizing BFS; Beamer,
// Asanović and Patterson, SC 2012), where each open node, one that some
// source has not reached, ORs its neighbours' frontier words and stops
// scanning once they cover every source it lacks. If u's eccentricity is
// at most 32, a batch runs a level bottom-up whenever its frontier holds
// more than a third as many nodes as are open; otherwise every level runs
// top-down. A node enters the frontier at most once per level and once
// per source, and a switching batch runs at most D ≤ 2·ecc(u) ≤ 64
// levels, so a batch costs O(min(D, 64)·m) word operations either way,
// and the worst case, where every node must be a source (a cycle), stays
// within the O(n·m) of a BFS per node. The scratch is two allocations at
// any n.
func diameter(g *Graph) (int, error) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	buf := make([]int32, 4*n)
	s := &bfsScratch{dist: buf[:n], queue: buf[n : n : 2*n]}
	if _, reached := s.run(g, 0); reached != n {
		return 0, ErrDisconnected
	}
	a := s.queue[n-1] // the last node a BFS dequeues is a farthest one
	ecc, _ := s.run(g, int(a))
	best := int(ecc)
	u := geodesicMiddle(g, s.dist, buf[2*n:3*n], s.queue[n-1], ecc)
	ecc, _ = s.run(g, int(u))
	best = max(best, int(ecc))
	dir := topDown
	if ecc <= switchMaxEcc {
		dir = switching
	}

	// s.queue lists the nodes by nondecreasing level, so sources are taken
	// from its end.
	words := make([]uint64, 3*n)
	ms := msbfs{
		seen: words[:n], visit: words[n : 2*n], next: words[2*n:],
		cur: buf[2*n : 2*n : 3*n], nxt: buf[3*n : 3*n : 4*n],
	}
	for i := n; i > 0 && best < 2*int(s.dist[s.queue[i-1]]); i -= 64 {
		best = max(best, ms.maxEccentricity(g, s.queue[max(i-64, 0):i], dir))
	}
	return best, nil
}

// geodesicMiddle returns the middle node, by index, of the nodes at level
// ⌊ecc/2⌋ of dist that lie on a shortest path from b, at level ecc, down
// to level 0: the nodes a walk from b reaches one level lower at every
// step. It marks the nodes it reaches in dist with -1 and keeps them in
// queue, which needs room for n.
func geodesicMiddle(g *Graph, dist, queue []int32, b, ecc int32) int32 {
	q := append(queue[:0], b)
	dist[b] = -1
	lo := 0
	for d := ecc; d > ecc/2; d-- {
		hi := len(q)
		for _, x := range q[lo:hi] {
			for _, w := range g.Neighbors(int(x)) {
				if dist[w] == d-1 {
					dist[w] = -1
					q = append(q, w)
				}
			}
		}
		lo = hi
	}
	level := q[lo:]
	slices.Sort(level)
	return level[len(level)/2]
}

// switchMaxEcc is the largest eccentricity of the midpoint u for which
// Diameter lets its batches switch direction. A graph where u lies farther
// from some node is long and thin: its frontiers stay narrow, an open
// node's missing sources lie at many distances, so a bottom-up scan
// seldom stops early, and the switching loop ran 1.3–1.9× slower than
// the top-down one on path:8192, cycle:8192 and grid:64x128 (EXPERIMENTS.md
// "Direction-optimizing batches").
const switchMaxEcc = 32

// msbfs is the scratch of a bit-parallel BFS from up to 64 sources: per
// node, the sources that have reached it (seen), whose frontier holds it
// (visit) and whose next frontier holds it (next), plus the nodes of the
// current and next frontiers as lists. A level runs top-down (push), at
// the cost of the frontier's edges, or bottom-up (pull), at the cost of a
// pass over the seen words and of the open nodes' edges up to the one
// that completes each.
type msbfs struct {
	seen, visit, next []uint64
	cur, nxt          []int32
}

// direction is how maxEccentricity advances its levels.
type direction uint8

const (
	topDown   direction = iota // every level top-down
	bottomUp                   // every level bottom-up
	switching                  // each level as its frontier and open nodes suggest
)

// maxEccentricity runs a BFS from each source (at most 64, distinct) in a
// connected graph and returns the largest of their eccentricities: the
// number of levels until every source has reached every node. It leaves
// the scratch zeroed.
//
// Both directions leave the same words after a level, so each level may
// take either. The switching loop counts the open nodes and runs a level
// bottom-up while the frontier holds more than a third as many: a
// top-down edge may update two words where a bottom-up one reads one, and
// once the frontier covers most of the graph an open node finds the
// sources it lacks among its first few neighbours. It stops as soon as no
// node is open, a level before a top-down loop sees an empty frontier.
// The top-down loop keeps no counts.
func (m *msbfs) maxEccentricity(g *Graph, sources []int32, dir direction) int {
	seen, cur := m.seen, m.cur[:0]
	for i, v := range sources {
		seen[v] = 1 << i
		m.visit[v] = 1 << i
		cur = append(cur, v)
	}
	m.cur = cur
	levels := 0
	if dir == topDown {
		for {
			m.push(g)
			if len(m.nxt) == 0 {
				break
			}
			levels++
			m.advance()
		}
	} else {
		all := ^uint64(0) >> (64 - len(sources))
		open := len(seen)
		if all == 1 {
			open-- // a lone source has reached itself
		}
		for ; open > 0 && len(m.cur) > 0; levels++ {
			if dir == bottomUp || 3*len(m.cur) > open {
				m.pull(g, all)
			} else {
				m.push(g)
			}
			for _, v := range m.nxt {
				if seen[v] == all {
					open--
				}
			}
			m.advance()
		}
		for _, v := range m.cur {
			m.visit[v] = 0
		}
	}
	clear(seen)
	return levels
}

// push runs a level top-down: every frontier node passes the sources it
// holds to the neighbours that have not seen them. It fills nxt with the
// next frontier and zeroes the frontier's words.
func (m *msbfs) push(g *Graph) {
	seen, visit, next, nxt := m.seen, m.visit, m.next, m.nxt[:0]
	for _, v := range m.cur {
		f := visit[v]
		visit[v] = 0
		for _, w := range g.nbr[g.off[v]:g.off[v+1]] {
			if d := f &^ seen[w]; d != 0 {
				if next[w] == 0 {
					nxt = append(nxt, w)
				}
				next[w] |= d
				seen[w] |= d
			}
		}
	}
	m.nxt = nxt
}

// pull runs a level bottom-up: every node that has not seen all the
// sources ORs its neighbours' frontier words, stopping once they and its
// seen word cover all. It fills nxt with the next frontier and zeroes the
// frontier's words.
func (m *msbfs) pull(g *Graph, all uint64) {
	seen, visit, next, nxt := m.seen, m.visit, m.next, m.nxt[:0]
	for v, sv := range seen {
		if sv == all {
			continue
		}
		var acc uint64
		for _, w := range g.nbr[g.off[v]:g.off[v+1]] {
			if acc |= visit[w]; acc|sv == all {
				break
			}
		}
		if d := acc &^ sv; d != 0 {
			next[v] = d
			seen[v] = sv | d
			nxt = append(nxt, int32(v))
		}
	}
	for _, v := range m.cur {
		visit[v] = 0
	}
	m.nxt = nxt
}

// advance makes the next frontier the current one.
func (m *msbfs) advance() {
	m.visit, m.next = m.next, m.visit
	m.cur, m.nxt = m.nxt, m.cur[:0]
}

// AwakeDistance returns ρ_awk(G, awake) = max_u dist(awake, u), the paper's
// fine-grained time measure (§1.2). It returns -1 if awake is empty or some
// node is unreachable from the awake set.
func (g *Graph) AwakeDistance(awake []int) int {
	if len(awake) == 0 {
		return -1
	}
	s := newBFSScratch(g.N())
	max, reached := s.run(g, awake...)
	if reached != g.N() {
		return -1
	}
	return int(max)
}

// Components returns the connected components as slices of node indices,
// each sorted ascending, ordered by their smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for head := 0; head < len(comp); head++ {
			v := comp[head]
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, int(w))
				}
			}
		}
		comps = append(comps, comp)
	}
	for _, c := range comps {
		slices.Sort(c)
	}
	return comps
}

// Connected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	s := newBFSScratch(g.N())
	_, reached := s.run(g, 0)
	return reached == g.N()
}

// Girth returns the length of a shortest cycle, or -1 if the graph is
// acyclic.
//
// A BFS from s that meets a non-tree edge {v, w} has found a closed walk
// through s of length dist(s, v) + dist(s, w) + 1, which holds a cycle at
// most that long, and no cycle through s is shorter than the shortest
// such walk (Itai and Rodeh, SICOMP 1978). Girth
// runs these searches 64 sources at a time with the bit-parallel scratch
// of Diameter, one level at a time: at level d, an edge between two
// frontier nodes of the same source closes a cycle of length at most
// 2d+1, and a node reached by two frontier nodes of the same source one
// of length at most 2d+2. A batch stops at the first level that closes a
// cycle, or once 2d+1 reaches the shortest cycle already known.
//
// Nodes of degree below 2 lie on no cycle, so the searches run on the
// 2-core. After each batch its sources are deleted and the core peeled
// again: every cycle through a source has been seen, so the girth is the
// smaller of the batch's best and the girth of what is left. A forest
// costs O(n + m). Otherwise there are at most ⌈n/64⌉ batches of
// O(min(d, 64)·m) word operations each, where d is the number of levels
// the batch runs: up to half the length of the shortest cycle through one
// of its sources, and about half the girth once a cycle is known.
func (g *Graph) Girth() int {
	n := g.N()
	words := make([]uint64, 3*n)
	ids := make([]int32, 3*n)
	ms := msbfs{
		seen: words[:n], visit: words[n : 2*n], next: words[2*n:],
		cur: ids[:0:n], nxt: ids[n : n : 2*n],
	}
	// A node is deleted by setting its degree to 0 and its seen word to
	// all ones, so no search enters it and no frontier meets it. A live
	// node has degree at least 2 and, between batches, seen word 0.
	seen := ms.seen
	deg := make([]int32, n)
	peel := ids[2*n : 2*n : 3*n]
	kill := func(v int32) {
		deg[v], seen[v] = 0, ^uint64(0)
		peel = append(peel, v)
	}
	for v := range deg {
		if d := g.off[v+1] - g.off[v]; d >= 2 {
			deg[v] = d
		} else {
			kill(int32(v))
		}
	}
	best := -1
	var batch [64]int32
	for first := int32(0); ; {
		for len(peel) > 0 {
			v := peel[len(peel)-1]
			peel = peel[:len(peel)-1]
			for _, w := range g.nbr[g.off[v]:g.off[v+1]] {
				if deg[w] >= 2 {
					if deg[w]--; deg[w] < 2 {
						kill(w)
					}
				}
			}
		}
		// Every node below first is deleted: a source or peeled.
		sources := batch[:0]
		for ; first < int32(n) && len(sources) < len(batch); first++ {
			if deg[first] >= 2 {
				sources = append(sources, first)
			}
		}
		if len(sources) == 0 {
			return best
		}
		if best = ms.shortestCycle(g, sources, best); best == 3 {
			return best // no cycle is shorter
		}
		// Zero the seen words the batch set: every node it reached is
		// joined to a source through reached nodes.
		stack := ms.nxt[:0]
		for _, v := range sources {
			seen[v] = 0
			stack = append(stack, v)
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.nbr[g.off[v]:g.off[v+1]] {
				if seen[w] != 0 && deg[w] >= 2 {
					seen[w] = 0
					stack = append(stack, w)
				}
			}
		}
		for _, v := range sources {
			kill(v)
		}
	}
}

// shortestCycle runs a BFS from each source (at most 64, distinct) over
// the nodes whose seen word is not all ones, and returns the shortest
// cycle length it detects if that is below best (-1: none known), else
// best. It leaves visit and next zeroed; seen keeps the sources that
// reached each node.
func (m *msbfs) shortestCycle(g *Graph, sources []int32, best int) int {
	seen, visit, next := m.seen, m.visit, m.next
	cur, nxt := m.cur[:0], m.nxt[:0]
	for i, v := range sources {
		seen[v] = 1 << i
		visit[v] = 1 << i
		cur = append(cur, v)
	}
	for d := 0; len(cur) > 0 && (best == -1 || 2*d+1 < best); d++ {
		// odd collects the sources with an edge inside their frontier,
		// twice those that reach a next-level node from two frontier
		// nodes.
		var odd, twice uint64
		for _, v := range cur {
			f := visit[v]
			for _, w := range g.nbr[g.off[v]:g.off[v+1]] {
				odd |= f & visit[w]
				twice |= f & next[w]
				if fresh := f &^ seen[w]; fresh != 0 {
					if next[w] == 0 {
						nxt = append(nxt, w)
					}
					next[w] |= fresh
					seen[w] |= fresh
				}
			}
		}
		for _, v := range cur {
			visit[v] = 0
		}
		visit, next = next, visit
		cur, nxt = nxt, cur[:0]
		// A cycle found here ends the loop: 2(d+1)+1 exceeds it.
		if odd != 0 {
			best = 2*d + 1
		} else if twice != 0 {
			best = 2*d + 2
		}
	}
	for _, v := range cur {
		visit[v] = 0
	}
	return best
}

// DegreeHistogram returns counts[d] = number of nodes with degree d.
func (g *Graph) DegreeHistogram() []int {
	counts := make([]int, g.MaxDegree()+1)
	for v := 0; v < g.N(); v++ {
		counts[g.Degree(v)]++
	}
	return counts
}
