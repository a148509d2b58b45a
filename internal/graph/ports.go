package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// PortMap realizes the KT0 port-numbering substrate (§1.1): each node v has
// ports 1..deg(v), and port_v is a bijection from port numbers to
// neighbors. The adversary controls the mapping; nodes have no a-priori
// knowledge of it. Ports here are 1-based to match the paper.
//
// The tables are flat CSR arrays indexed through the graph's offset table:
// the port-p out-edge of node v lives at flat index start[v]+p-1. Compared
// to per-node slices this removes 2n slice headers and allocations, which
// matters at the million-node scale the engine targets.
type PortMap struct {
	g     *Graph
	start []int32 // CSR offsets; aliases the graph's table, never mutated
	ports []int32 // ports[start[v]+p-1] = neighbor index reached via port p
	inv   []int32 // inv[start[v]+i] = port at v leading to Neighbors(v)[i]
}

// IdentityPorts returns the port map where port p at v leads to the p-th
// smallest neighbor of v.
func IdentityPorts(g *Graph) *PortMap {
	off, nbr := g.CSR()
	pm := &PortMap{
		g:     g,
		start: off,
		ports: append([]int32(nil), nbr...),
		inv:   make([]int32, len(nbr)),
	}
	for v := 0; v < g.N(); v++ {
		seg := pm.inv[off[v]:off[v+1]]
		for i := range seg {
			seg[i] = int32(i + 1)
		}
	}
	return pm
}

// RandomPorts returns a port map where every node's port bijection is an
// independent uniformly random permutation — the input distribution of the
// Theorem 1 lower bound.
func RandomPorts(g *Graph, rng *rand.Rand) *PortMap {
	pm := IdentityPorts(g)
	for v := 0; v < g.N(); v++ {
		seg := pm.ports[pm.start[v]:pm.start[v+1]]
		rng.Shuffle(len(seg), func(i, j int) {
			seg[i], seg[j] = seg[j], seg[i]
		})
		pm.rebuildInverse(v)
	}
	return pm
}

func (pm *PortMap) rebuildInverse(v int) {
	adj := pm.g.Neighbors(v)
	base := pm.start[v]
	inv := pm.inv[base : base+int32(len(adj))]
	for p0, w := range pm.ports[base : base+int32(len(adj))] {
		// Position of neighbor w in the sorted adjacency segment.
		lo, hi := 0, len(adj)
		for lo < hi {
			mid := (lo + hi) / 2
			if adj[mid] < w {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		inv[lo] = int32(p0 + 1)
	}
}

// Graph returns the underlying graph.
func (pm *PortMap) Graph() *Graph { return pm.g }

// Fits reports whether pm can number the ports of g: whether g has the
// nodes and edges of the graph pm was built on. That graph and its
// clones fit, whatever their IDs; a port map depends on the topology only.
func (pm *PortMap) Fits(g *Graph) bool {
	return pm.g == g || slices.Equal(pm.g.off, g.off) && slices.Equal(pm.g.nbr, g.nbr)
}

func (pm *PortMap) degree(v int) int { return int(pm.start[v+1] - pm.start[v]) }

// Neighbor returns the node index reached from v via port p (1-based).
//
//wakeup:noalloc
func (pm *PortMap) Neighbor(v, p int) int {
	if p < 1 || p > pm.degree(v) {
		//lint:noalloc-ok panic formatting on the programming-error path only
		panic(fmt.Sprintf("graph: node %d has no port %d (degree %d)", v, p, pm.degree(v)))
	}
	return int(pm.ports[pm.start[v]+int32(p)-1])
}

// PortTo returns port_v^{-1}(u): the port at v whose edge leads to neighbor
// u. It panics if u is not a neighbor of v.
//
//wakeup:noalloc
func (pm *PortMap) PortTo(v, u int) int {
	adj := pm.g.Neighbors(v)
	t := int32(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(adj) || adj[lo] != t {
		//lint:noalloc-ok panic formatting on the programming-error path only
		panic(fmt.Sprintf("graph: %d is not a neighbor of %d", u, v))
	}
	return int(pm.inv[pm.start[v]+int32(lo)])
}

// CSR exports the port mapping as flat compressed-sparse-row arrays over
// directed edges. The out-edge of node v addressed by port p (1-based)
// lives at flat index start[v]+p-1; start[n] equals 2·M(). For that edge,
// to[ei] is the neighbor index the port leads to, and rev[ei] is the port
// at the neighbor whose edge leads back to v — i.e. PortTo(to[ei], v) —
// precomputed so per-message paths never binary-search the adjacency list.
//
// start is the graph's own immutable offset table (shared, do not modify);
// to and rev are snapshots, so SwapPorts invalidates them and callers that
// mutate the mapping must re-export.
func (pm *PortMap) CSR() (start, to, rev []int32) {
	n := pm.g.N()
	start = pm.start
	if start == nil {
		start = make([]int32, 1) // zero-value Graph: one all-zero offset
	}
	to = append([]int32(nil), pm.ports...)
	rev = make([]int32, len(pm.ports))
	// Fill rev in O(m): scanning nodes in ascending order, the neighbors u
	// of any fixed node w are visited in ascending u as well, and the
	// adjacency segments are sorted — so u's position in w's segment is just
	// how many of w's neighbors have been visited so far.
	seen := make([]int32, n)
	for u := 0; u < n; u++ {
		base := pm.start[u]
		for i, w := range pm.g.Neighbors(u) {
			j := seen[w]
			seen[w]++
			// directed edge u→w via port inv[base+i]; its reverse port is
			// the port at w leading to the j-th neighbor of w, which is u.
			rev[base+pm.inv[base+int32(i)]-1] = pm.inv[pm.start[w]+j]
		}
	}
	return start, to, rev
}

// SwapPorts exchanges the two given ports at node v, preserving bijectivity.
// Lower-bound experiments use this to construct indistinguishable
// configurations.
func (pm *PortMap) SwapPorts(v, p1, p2 int) {
	base := pm.start[v]
	pm.ports[base+int32(p1)-1], pm.ports[base+int32(p2)-1] = pm.ports[base+int32(p2)-1], pm.ports[base+int32(p1)-1]
	pm.rebuildInverse(v)
}

// Validate checks that every node's port assignment is a bijection onto its
// neighbor set and that the inverse table is consistent.
func (pm *PortMap) Validate() error {
	if n := pm.g.N(); n > 0 && (int(pm.start[n]) != len(pm.ports) || len(pm.ports) != len(pm.inv)) {
		return fmt.Errorf("graph: port tables have %d/%d entries for %d directed edges", len(pm.ports), len(pm.inv), pm.start[n])
	}
	for v := 0; v < pm.g.N(); v++ {
		adj := pm.g.Neighbors(v)
		if pm.degree(v) != len(adj) {
			return fmt.Errorf("graph: node %d has %d ports for degree %d", v, pm.degree(v), len(adj))
		}
		seen := make(map[int32]bool, len(adj))
		for p0, w := range pm.ports[pm.start[v]:pm.start[v+1]] {
			if !pm.g.HasEdge(v, int(w)) {
				return fmt.Errorf("graph: node %d port %d leads to non-neighbor %d", v, p0+1, w)
			}
			if seen[w] {
				return fmt.Errorf("graph: node %d maps two ports to neighbor %d", v, w)
			}
			seen[w] = true
		}
		for i, w := range adj {
			p := int(pm.inv[pm.start[v]+int32(i)])
			if pm.Neighbor(v, p) != int(w) {
				return fmt.Errorf("graph: node %d inverse port table inconsistent at neighbor %d", v, w)
			}
		}
	}
	return nil
}
