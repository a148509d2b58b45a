package core

import (
	"fmt"
	"slices"

	"riseandshine/internal/advice"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// FIP06Oracle implements the advising scheme of Corollary 1 (following
// Fraigniaud, Ilcinkas and Pelc): the oracle computes a BFS tree and gives
// every node the set of its incident tree ports. On waking, a node sends a
// wake-up message over exactly its tree ports, so messages propagate along
// tree edges only: O(n) messages and O(D) time.
//
// Each node's advice uses the cheaper of two encodings — an explicit port
// list (deg_T·⌈log deg⌉ bits) or a bitmap over its ports (deg bits) —
// which yields the Corollary 1 bounds: maximum advice O(n) bits and
// average advice O(log n) bits per node.
type FIP06Oracle struct {
	// Root selects the BFS root; nodes are indexed from 0.
	Root int
}

var _ advice.Oracle = FIP06Oracle{}

// Name implements advice.Oracle.
func (FIP06Oracle) Name() string { return "fip06-bfs-tree" }

// Advise implements advice.Oracle.
func (o FIP06Oracle) Advise(g *graph.Graph, pm *graph.PortMap) ([][]byte, []int, error) {
	ports, err := treePorts(g, pm, o.Root)
	if err != nil {
		return nil, nil, err
	}
	bits := make([][]byte, g.N())
	lengths := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		bits[v], lengths[v] = encodePortSet(ports[v], g.Degree(v))
	}
	return bits, lengths, nil
}

// treePorts computes, for every node, the sorted list of its ports that
// lead to BFS-tree neighbors (parent or child).
func treePorts(g *graph.Graph, pm *graph.PortMap, root int) ([][]int, error) {
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("core: BFS root %d out of range [0,%d)", root, g.N())
	}
	if !g.Connected() {
		return nil, graph.ErrDisconnected
	}
	parent, _ := g.BFSTree(root)
	ports := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		if p := parent[v]; p != -1 {
			ports[v] = append(ports[v], pm.PortTo(v, p))
			ports[p] = append(ports[p], pm.PortTo(p, v))
		}
	}
	for v := range ports {
		slices.Sort(ports[v])
	}
	return ports, nil
}

// encodePortSet writes a port subset of 1..deg using the cheaper of a
// counted port list (selector bit 0) or a bitmap (selector bit 1).
func encodePortSet(ports []int, deg int) ([]byte, int) {
	w := advice.BitsFor(deg)
	listBits := 1 + w + len(ports)*w
	mapBits := 1 + deg
	var wr advice.Writer
	if listBits <= mapBits {
		wr.WriteBool(false)
		wr.WriteBits(uint64(len(ports)), w)
		for _, p := range ports {
			wr.WriteBits(uint64(p), w)
		}
	} else {
		wr.WriteBool(true)
		member := make([]bool, deg+1)
		for _, p := range ports {
			member[p] = true
		}
		for p := 1; p <= deg; p++ {
			wr.WriteBool(member[p])
		}
	}
	return wr.Bytes(), wr.Len()
}

// decodePortSet reverses encodePortSet.
func decodePortSet(r *advice.Reader, deg int) ([]int, error) {
	w := advice.BitsFor(deg)
	var ports []int
	if !r.ReadBool() {
		count := int(r.ReadBits(w))
		ports = make([]int, 0, count)
		for i := 0; i < count; i++ {
			ports = append(ports, int(r.ReadBits(w)))
		}
	} else {
		for p := 1; p <= deg; p++ {
			if r.ReadBool() {
				ports = append(ports, p)
			}
		}
	}
	return ports, r.Err()
}

// FIP06 is the distributed algorithm of the Corollary 1 scheme: wake your
// tree neighbors, nothing else. It runs in the asynchronous KT0 CONGEST
// model.
type FIP06 struct{}

var _ sim.Algorithm = FIP06{}

// Name implements sim.Algorithm.
func (FIP06) Name() string { return "fip06" }

// NewMachine implements sim.Algorithm.
func (FIP06) NewMachine(info sim.NodeInfo) sim.Program {
	return &portSetMachine{info: info}
}

// portSetMachine sends one wake-up message over each advised port upon
// waking.
type portSetMachine struct {
	info sim.NodeInfo
}

func (m *portSetMachine) OnWake(ctx sim.Context) {
	r := advice.NewReader(m.info.Advice, m.info.AdviceBits)
	ports, err := decodePortSet(r, m.info.Degree)
	if err != nil {
		panic(fmt.Sprintf("core: node %d: malformed advice: %v", m.info.ID, err))
	}
	for _, p := range ports {
		ctx.Send(p, WakeMsg{})
	}
}

func (m *portSetMachine) OnMessage(sim.Context, sim.Delivery) {
	// Waking is handled by OnWake; nothing further to do.
}
