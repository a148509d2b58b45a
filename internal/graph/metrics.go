package graph

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
// It squeezes the answer between a lower and an upper bound (iFUB;
// Crescenzi, Grossi, Habib, Lanzi and Marino, TCS 2013). A double sweep —
// a BFS from node 0, then one from the farthest node a it reaches — gives
// the lower bound ecc(a) and a longest a–b path found; u is the middle
// node of that path, and a third BFS gives every node x its level
// dist(u, x). Two nodes whose levels are both at most h are at most 2h
// apart, through u. So Diameter computes eccentricities in decreasing
// level order and stops as soon as the largest one found is at least 2h,
// where h is the highest level not yet used as a source: every pair with
// an endpoint already used is bounded by that endpoint's eccentricity, and
// every other pair by 2h. The answer is therefore exact. A tree of even
// diameter stops after the three sweeps (u is its centre), one of odd
// diameter after the sources of the top level, and a low-diameter random
// graph after the sources above its middle levels.
//
// The eccentricities are computed 64 sources at a time by a bit-parallel
// BFS (MS-BFS; Then et al., VLDB 2014): each node holds one uint64 of
// seen, frontier and next-frontier bits, bit i for source i, and one scan
// of a frontier node's edges advances every source that reached it. A node
// enters the frontier at most once per level and once per source, so a
// batch costs O(min(D, 64)·m) word operations, and the worst case, where
// every node must be a source (a cycle), stays within the O(n·m) of a BFS
// per node. The scratch is two allocations at any n.
func (g *Graph) Diameter() (int, error) {
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
	// Walk back from b (farthest from a) along decreasing dist(a, ·) to
	// the middle of a longest a–b path.
	u := s.queue[n-1]
	for d := ecc; d > ecc/2; d-- {
		for _, w := range g.Neighbors(int(u)) {
			if s.dist[w] == d-1 {
				u = w
				break
			}
		}
	}
	ecc, _ = s.run(g, int(u))
	best = max(best, int(ecc))

	// s.queue lists the nodes by nondecreasing level, so sources are taken
	// from its end.
	words := make([]uint64, 3*n)
	ms := msbfs{
		seen: words[:n], visit: words[n : 2*n], next: words[2*n:],
		cur: buf[2*n : 2*n : 3*n], nxt: buf[3*n : 3*n : 4*n],
	}
	for i := n; i > 0 && best < 2*int(s.dist[s.queue[i-1]]); i -= 64 {
		best = max(best, ms.maxEccentricity(g, s.queue[max(i-64, 0):i]))
	}
	return best, nil
}

// msbfs is the scratch of a bit-parallel BFS from up to 64 sources: per
// node, the sources that have reached it (seen), whose frontier holds it
// (visit) and whose next frontier holds it (next), plus the nodes of the
// current and next frontiers as lists.
type msbfs struct {
	seen, visit, next []uint64
	cur, nxt          []int32
}

// maxEccentricity runs a BFS from each source (at most 64, distinct) in a
// connected graph and returns the largest of their eccentricities: the
// number of levels until every source has reached every node. It leaves
// the scratch zeroed.
func (m *msbfs) maxEccentricity(g *Graph, sources []int32) int {
	seen, visit, next := m.seen, m.visit, m.next
	cur, nxt := m.cur[:0], m.nxt[:0]
	for i, v := range sources {
		seen[v] = 1 << i
		visit[v] = 1 << i
		cur = append(cur, v)
	}
	levels := 0
	for {
		for _, v := range cur {
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
		if len(nxt) == 0 {
			break
		}
		levels++
		visit, next = next, visit
		cur, nxt = nxt, cur[:0]
	}
	clear(seen)
	return levels
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
		sortInts(c)
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
// acyclic. It runs a BFS from every node and detects the first cross/back
// edge, giving the exact girth in O(n·m) time.
func (g *Graph) Girth() int {
	best := -1
	n := g.N()
	dist := make([]int, n)
	par := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		dist[s] = 0
		par[s] = -1
		queue = append(queue, int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if best != -1 && dist[v] >= (best+1)/2 {
				break // no shorter cycle through s can be found deeper
			}
			for _, w := range g.Neighbors(int(v)) {
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					par[w] = v
					queue = append(queue, w)
				} else if w != par[v] {
					// Cycle through s of length dist[v]+dist[w]+1.
					if c := dist[v] + dist[w] + 1; best == -1 || c < best {
						best = c
					}
				}
			}
		}
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

func sortInts(a []int) {
	// insertion sort: component slices are typically already nearly sorted
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
