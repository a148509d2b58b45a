package sim

import (
	"fmt"

	"riseandshine/internal/graph"
)

// Setup is the shared pre-flight state of one execution: the validated
// topology, the port mapping, the CSR edge metadata, the oracle's advice
// and the CONGEST limit. It holds nothing seed-dependent, so one Setup
// serves a whole seed matrix. Every run, asynchronous or synchronous,
// resolves exactly one Setup and builds each node's NodeInfo from it
// (info), so a node sees identical NodeInfo in either timing model. The
// Setup reads node IDs from Graph when a node wakes, so the graph's IDs
// must not change (Graph.SetIDs) once the Setup is built.
type Setup struct {
	// Graph is the network topology.
	Graph *graph.Graph
	// Ports is the KT0 port mapping (never nil; identity by default).
	Ports *graph.PortMap
	// Model is the knowledge/bandwidth configuration.
	Model Model
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

	// neighborIDs[ei] is the ID of node EdgeTo[ei] under KT1, and nil under
	// KT0: node v's NodeInfo.NeighborIDs is its segment
	// neighborIDs[EdgeStart[v]:EdgeStart[v+1]], one flat table instead of a
	// slice per node.
	neighborIDs []graph.NodeID
	// advice and adviceBits are the oracle's assignment as NewSetup
	// received it (nil without an oracle).
	advice     [][]byte
	adviceBits []int
	logN       int

	adviceTotalBits int64
	adviceMaxBits   int
}

// NewSetup validates the common configuration surface and assembles the
// shared state. A nil ports argument selects the identity mapping.
// Advice, when non-nil, must assign a bit string to every node;
// adviceBits, when non-nil, needs advice and gives each node's exact
// length in bits, at most 8·len(advice[v]). Bad advice is an error before
// anything is allocated.
func NewSetup(g *graph.Graph, ports *graph.PortMap, model Model, advice [][]byte, adviceBits []int) (*Setup, error) {
	if g == nil {
		return nil, fmt.Errorf("sim: graph is required")
	}
	n := g.N()
	if advice != nil && len(advice) != n {
		return nil, fmt.Errorf("sim: advice for %d nodes, graph has %d", len(advice), n)
	}
	var totalBits int64
	var maxBits int
	if adviceBits != nil {
		if advice == nil {
			return nil, fmt.Errorf("sim: advice bit lengths given without advice")
		}
		if len(adviceBits) != n {
			return nil, fmt.Errorf("sim: advice bit lengths for %d nodes, graph has %d", len(adviceBits), n)
		}
		for v, b := range adviceBits {
			if b < 0 || b > 8*len(advice[v]) {
				return nil, fmt.Errorf("sim: node %d has %d advice bits in %d bytes", v, b, len(advice[v]))
			}
			totalBits += int64(b)
			maxBits = max(maxBits, b)
		}
	}
	if ports == nil {
		ports = graph.IdentityPorts(g)
	}
	s := &Setup{
		Graph:           g,
		Ports:           ports,
		Model:           model,
		CongestLimit:    model.congestLimit(n),
		advice:          advice,
		adviceBits:      adviceBits,
		logN:            CeilLog2(n),
		adviceTotalBits: totalBits,
		adviceMaxBits:   maxBits,
	}
	s.EdgeStart, s.EdgeTo, s.RevPort = ports.CSR()
	if model.Knowledge == KT1 {
		s.neighborIDs = make([]graph.NodeID, len(s.EdgeTo))
		for ei, to := range s.EdgeTo {
			s.neighborIDs[ei] = g.ID(int(to))
		}
	}
	return s, nil
}

// info returns the static NodeInfo of node v, derived from the tables a
// waking node touches anyway. NeighborIDs is capped at its own length, so
// an append by one machine copies instead of writing into the next
// node's IDs.
//
//wakeup:noalloc
func (s *Setup) info(v int) NodeInfo {
	first, end := s.EdgeStart[v], s.EdgeStart[v+1]
	info := NodeInfo{
		ID:     s.Graph.ID(v),
		N:      s.Graph.N(),
		LogN:   s.logN,
		Degree: int(end - first),
	}
	if s.neighborIDs != nil {
		info.NeighborIDs = s.neighborIDs[first:end:end]
	}
	if s.advice != nil {
		info.Advice = s.advice[v]
		if s.adviceBits != nil {
			info.AdviceBits = s.adviceBits[v]
		}
	}
	return info
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
