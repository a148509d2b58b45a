// Package graph provides the network substrate for the wake-up simulator:
// an immutable undirected-graph representation, generators for the graph
// families used throughout the paper's analysis and experiments, structural
// metrics (BFS distances, diameter, girth, awake distance), KT0 port
// mappings, and greedy multiplicative spanners.
//
// Nodes are indexed 0..N-1 internally. Separately, every node carries an
// integer ID (the identifier visible to distributed algorithms); the
// adversary controls the assignment of IDs to indices, which matters for
// the KT1 lower-bound constructions where indistinguishability is argued
// over ID permutations.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// NodeID is the application-visible identifier of a node. The paper assumes
// IDs are drawn from a range polynomial in n; any distinct non-negative
// values work here.
type NodeID int64

// Graph is an immutable simple undirected graph. The zero value is an empty
// graph with no nodes; use a Builder, or one of the generators (which use
// one), to construct non-trivial instances.
//
// Adjacency is stored as one flat compressed-sparse-row (CSR) pair: off has
// n+1 offsets and nbr holds all 2·M directed edges, so the neighbors of v
// are the sorted subslice nbr[off[v]:off[v+1]]. Compared to per-node slices
// this removes n slice headers and n separate allocations and makes the
// graph's own tables the same shape as the engine-facing Setup CSR. Node
// indices are int32, so a graph holds at most 2^31-1 directed edges.
//
// IDs default to the identity assignment id(v) = v, represented implicitly
// (ids and idx stay nil) so million-node graphs don't carry an O(n) ID
// table and an O(n) hash map they never use; SetIDs materializes both.
//
// A Graph holds an atomic and must not be copied by value.
type Graph struct {
	off []int32 // CSR offsets, len N()+1
	nbr []int32 // CSR neighbor indices, sorted ascending within each node
	ids []NodeID
	idx map[NodeID]int
	m   int
	// diam memoizes Diameter: 0 until a call has computed it, then -1 for
	// a disconnected graph and D+1 otherwise (D < n fits). The structure
	// never changes after Build, so the value stays correct; concurrent
	// first callers may each compute it and store the same value.
	diam atomic.Int32
}

// maxDirected bounds the directed-edge count (and node count) so all CSR
// indices fit int32.
const maxDirected = math.MaxInt32

// Builder accumulates edges for a graph under construction. Duplicate edges
// and self-loops are rejected at Build time.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a builder for a graph on n nodes (indices 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// newSizedBuilder returns a builder for a generator that knows its edge
// count m up front. It checks the size first, so an oversized family
// panics with CheckSize's message before anything is allocated, and then
// allocates the edge list once.
func newSizedBuilder(n, m int) *Builder {
	if err := CheckSize(n, m); err != nil {
		panic(err)
	}
	return &Builder{n: n, edges: make([][2]int32, 0, m)}
}

// AddEdge records the undirected edge {u, v}.
func (b *Builder) AddEdge(u, v int) {
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// CheckSize reports whether a graph with n nodes and m undirected edges
// fits the int32 CSR index space. Callers that take sizes from outside the
// program check them with it before a generator allocates anything.
func CheckSize(n, m int) error {
	switch {
	case n < 0:
		return fmt.Errorf("graph: negative node count %d", n)
	case n >= maxDirected:
		return fmt.Errorf("graph: %d nodes exceed the int32 index space", n)
	case m < 0:
		return fmt.Errorf("graph: negative edge count %d", m)
	case m > maxDirected/2:
		return fmt.Errorf("graph: %d edges exceed the int32 index space of %d directed slots", m, maxDirected)
	}
	return nil
}

// Build validates the accumulated edges and produces the graph. Node IDs
// default to the identity assignment id(v) = v; use SetIDs to override.
func (b *Builder) Build() (*Graph, error) {
	if err := CheckSize(b.n, len(b.edges)); err != nil {
		return nil, err
	}
	off := make([]int32, b.n+1)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at node %d", u)
		}
		if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
		}
		off[u+1]++
		off[v+1]++
	}
	for v := 0; v < b.n; v++ {
		off[v+1] += off[v]
	}
	nbr := make([]int32, 2*len(b.edges))
	cursor := make([]int32, b.n)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		nbr[off[u]+cursor[u]] = v
		cursor[u]++
		nbr[off[v]+cursor[v]] = u
		cursor[v]++
	}
	for v := 0; v < b.n; v++ {
		seg := nbr[off[v]:off[v+1]]
		slices.Sort(seg)
		for i := 1; i < len(seg); i++ {
			if seg[i] == seg[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", v, seg[i])
			}
		}
	}
	return &Graph{off: off, nbr: nbr, m: len(b.edges)}, nil
}

// MustBuild is Build, panicking on error. It is intended for generators and
// tests where the edge set is correct by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of node index v.
//
//wakeup:noalloc
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v+1 < len(g.off); v++ {
		if d := int(g.off[v+1] - g.off[v]); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the sorted neighbor indices of v. The returned slice is
// shared with the graph and must not be modified.
//
//wakeup:noalloc
func (g *Graph) Neighbors(v int) []int32 { return g.nbr[g.off[v]:g.off[v+1]] }

// CSR exposes the graph's offset and neighbor tables — the same
// compressed-sparse-row layout Setup and PortMap use, which share them
// rather than copy them (an identity PortMap's port table is nbr). Both
// slices must not be modified.
func (g *Graph) CSR() (off, nbr []int32) { return g.off, g.nbr }

// HasEdge reports whether the undirected edge {u, v} exists.
//
//wakeup:noalloc
func (g *Graph) HasEdge(u, v int) bool {
	a := g.Neighbors(u)
	t := int32(v)
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == t
}

// ID returns the application-visible identifier of node index v.
//
//wakeup:noalloc
func (g *Graph) ID(v int) NodeID {
	if g.ids == nil {
		if v < 0 || v >= g.N() {
			//lint:noalloc-ok panic formatting on the programming-error path only
			panic(fmt.Sprintf("graph: node index %d out of range [0,%d)", v, g.N()))
		}
		return NodeID(v)
	}
	return g.ids[v]
}

// IndexOf returns the node index carrying the given ID, or -1 if absent.
//
//wakeup:noalloc
func (g *Graph) IndexOf(id NodeID) int {
	if g.idx == nil {
		if id < 0 || id >= NodeID(g.N()) {
			return -1
		}
		return int(id)
	}
	v, ok := g.idx[id]
	if !ok {
		return -1
	}
	return v
}

// SetIDs installs a custom ID assignment: ids[v] becomes the identifier of
// node index v. IDs must be unique; the slice length must equal N().
func (g *Graph) SetIDs(ids []NodeID) error {
	if len(ids) != g.N() {
		return fmt.Errorf("graph: got %d ids for %d nodes", len(ids), g.N())
	}
	idx := make(map[NodeID]int, len(ids))
	for v, id := range ids {
		if _, dup := idx[id]; dup {
			return fmt.Errorf("graph: duplicate node ID %d", id)
		}
		idx[id] = v
	}
	g.ids = append([]NodeID(nil), ids...)
	g.idx = idx
	return nil
}

// Edges returns all undirected edges as index pairs with u < v, in
// deterministic (sorted) order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				out = append(out, [2]int{u, int(w)})
			}
		}
	}
	return out
}

// Subgraph returns a new graph on the same node set (and the same IDs)
// containing exactly the given edges. Each edge must exist in g.
func (g *Graph) Subgraph(edges [][2]int) (*Graph, error) {
	b := NewBuilder(g.N())
	for _, e := range edges {
		if !g.HasEdge(e[0], e[1]) {
			return nil, fmt.Errorf("graph: subgraph edge {%d,%d} not in parent", e[0], e[1])
		}
		b.AddEdge(e[0], e[1])
	}
	sub, err := b.Build()
	if err != nil {
		return nil, err
	}
	if g.ids != nil {
		if err := sub.SetIDs(g.ids); err != nil {
			return nil, err
		}
	}
	return sub, nil
}

// Clone returns a deep copy of g. The copy can receive a different ID
// assignment without affecting the original. It shares g's structure, and
// with it any diameter g has already computed.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		off: g.off, // CSR tables are immutable and safely shared
		nbr: g.nbr,
		m:   g.m,
	}
	c.diam.Store(g.diam.Load())
	if g.ids != nil {
		c.ids = append([]NodeID(nil), g.ids...)
		c.idx = make(map[NodeID]int, len(g.idx))
		for id, v := range g.idx {
			c.idx[id] = v
		}
	}
	return c
}

// ErrDisconnected is returned by metrics that require connectivity.
var ErrDisconnected = errors.New("graph: graph is disconnected")
