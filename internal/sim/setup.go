package sim

import (
	"fmt"

	"riseandshine/internal/graph"
)

// Setup is the shared pre-flight state of one execution: the validated
// topology, the port mapping, the per-node static information and the
// CONGEST limit. It holds nothing seed-dependent, so one Setup serves a
// whole seed matrix. Every run, asynchronous or synchronous, resolves
// exactly one Setup and routes node construction through it, so a node
// sees identical NodeInfo in either timing model.
type Setup struct {
	// Graph is the network topology.
	Graph *graph.Graph
	// Ports is the KT0 port mapping (never nil; identity by default).
	Ports *graph.PortMap
	// Model is the knowledge/bandwidth configuration.
	Model Model
	// Infos[v] is the static information handed to node v's machine.
	Infos []NodeInfo
	// CongestLimit is the enforced per-message bit limit (0 = none).
	CongestLimit int

	// EdgeStart, EdgeTo and RevPort are the CSR edge-metadata arrays of the
	// engine's send path (see graph.PortMap.CSR): the out-edge of
	// node v addressed by port p lives at flat index EdgeStart[v]+p-1,
	// EdgeTo[ei] is the receiving node, and RevPort[ei] is the receiver-side
	// port — PortTo precomputed once per topology, so no per-message binary
	// search.
	EdgeStart []int32
	EdgeTo    []int32
	RevPort   []int32
	// SenderIDs[v] is the Delivery.From value for messages sent by v: the
	// node's ID under KT1 and -1 under KT0, so send paths fill the field
	// with one unconditional load.
	SenderIDs []graph.NodeID

	adviceTotalBits int64
	adviceMaxBits   int
}

// NewSetup validates the common configuration surface and assembles the
// shared per-node state. A nil ports argument selects the identity
// mapping. Advice, when non-nil, must assign a bit string to every node.
func NewSetup(g *graph.Graph, ports *graph.PortMap, model Model, advice [][]byte, adviceBits []int) (*Setup, error) {
	if g == nil {
		return nil, fmt.Errorf("sim: graph is required")
	}
	if advice != nil && len(advice) != g.N() {
		return nil, fmt.Errorf("sim: advice for %d nodes, graph has %d", len(advice), g.N())
	}
	if ports == nil {
		ports = graph.IdentityPorts(g)
	}
	s := &Setup{
		Graph:        g,
		Ports:        ports,
		Model:        model,
		Infos:        make([]NodeInfo, g.N()),
		CongestLimit: model.congestLimit(g.N()),
	}
	for v := 0; v < g.N(); v++ {
		s.Infos[v] = buildNodeInfo(g, ports, model, advice, adviceBits, v)
	}
	for _, b := range adviceBits {
		s.adviceTotalBits += int64(b)
		if b > s.adviceMaxBits {
			s.adviceMaxBits = b
		}
	}
	s.EdgeStart, s.EdgeTo, s.RevPort = ports.CSR()
	s.SenderIDs = make([]graph.NodeID, g.N())
	for v := range s.SenderIDs {
		if model.Knowledge == KT1 {
			s.SenderIDs[v] = g.ID(v)
		} else {
			s.SenderIDs[v] = -1
		}
	}
	return s, nil
}

// edge returns the flat CSR index of node from's out-edge behind port. A
// port outside 1..degree panics with graph.PortMap.Neighbor's message; it
// is compared as an int before it meets the int32 offsets, so no
// out-of-range port can wrap onto a valid edge.
//
//wakeup:noalloc
func (s *Setup) edge(from, port int) int32 {
	first := s.EdgeStart[from]
	if deg := int(s.EdgeStart[from+1] - first); port < 1 || port > deg {
		//lint:noalloc-ok panic formatting on the programming-error path only
		panic(fmt.Sprintf("graph: node %d has no port %d (degree %d)", from, port, deg))
	}
	return first + int32(port-1)
}

// buildNodeInfo assembles the static NodeInfo for node v under the given
// model and advice assignment.
func buildNodeInfo(g *graph.Graph, pm *graph.PortMap, model Model, adv [][]byte, advBits []int, v int) NodeInfo {
	info := NodeInfo{
		ID:     g.ID(v),
		N:      g.N(),
		LogN:   CeilLog2(g.N()),
		Degree: g.Degree(v),
	}
	if model.Knowledge == KT1 {
		ids := make([]graph.NodeID, info.Degree)
		for p := 1; p <= info.Degree; p++ {
			ids[p-1] = g.ID(pm.Neighbor(v, p))
		}
		info.NeighborIDs = ids
	}
	if adv != nil {
		info.Advice = adv[v]
		if advBits != nil {
			info.AdviceBits = advBits[v]
		}
	}
	return info
}
