package lowerbound

import (
	"fmt"

	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// This file makes the ID-swap indistinguishability argument of Lemmas 5
// and 6 executable (Figure 3 of the paper). On 𝒢_k, pick a center v★, its
// crucial partner w★, and a neighbor u of v★ that never communicates with
// v★ under a fixed deterministic time-restricted strategy. Swapping the
// IDs of w★ and u produces a configuration in which v★ (and, by the girth
// argument, every node whose messages can reach v★ in time) observes a
// bit-identical execution — verified here by comparing transcript digests
// — even though the identity of v★'s crucial neighbor has changed. Any
// fixed output rule at v★ is therefore wrong in at least one of the two
// configurations, which is the engine of the Theorem 2 lower bound.

// parityProbe is a deterministic two-round KT1 LOCAL strategy: every
// adversary-woken node probes its even-ID neighbors; probed nodes reply
// with their full neighbor list. It is intentionally "quiet" on odd-ID
// edges so that non-communicating neighbors exist.
type parityProbe struct{}

var _ sim.Algorithm = parityProbe{}

func (parityProbe) Name() string { return "parity-probe" }

func (parityProbe) NewMachine(info sim.NodeInfo) sim.Program {
	return &parityMachine{info: info}
}

type probeQ struct{}

func (probeQ) Bits() int { return 4 }

type probeReply struct {
	Neighbors []graph.NodeID
}

func (m probeReply) Bits() int { return 16 + 32*len(m.Neighbors) }

type parityMachine struct {
	info sim.NodeInfo
}

func (m *parityMachine) OnWake(ctx sim.Context) {
	if !ctx.AdversarialWake() {
		return
	}
	for _, id := range m.info.NeighborIDs {
		if id%2 == 0 {
			ctx.SendToID(id, probeQ{})
		}
	}
}

func (m *parityMachine) OnMessage(ctx sim.Context, d sim.Delivery) {
	if _, ok := d.Msg.(probeQ); ok {
		ctx.SendToID(d.From, probeReply{Neighbors: m.info.NeighborIDs})
	}
}

// SwapReport records the outcome of one indistinguishability experiment.
type SwapReport struct {
	// Center is the node index of v★; PartnerID and SwappedID are the IDs
	// carried by the crucial partner w★ in the original and swapped
	// configuration.
	Center    int
	PartnerID graph.NodeID
	SwappedID graph.NodeID
	// DigestsEqual reports whether v★ observed identical transcripts.
	DigestsEqual bool
	// AllDigestsEqual reports whether every node observed identical
	// transcripts (the strategy sends no message that depends on the
	// swapped IDs at all).
	AllDigestsEqual bool
}

// SwapIndistinguishability runs the parity-probe strategy on in and on its
// (w★, u)-swapped twin and compares transcripts. It returns an error if no
// valid (v★, u) pair exists (both the partner and some silent U-neighbor
// of v★ must carry odd IDs).
func SwapIndistinguishability(in *Instance) (*SwapReport, error) {
	// Find a center whose partner is odd and that has an odd U-neighbor.
	vStar, uNode := -1, -1
	var wStar int
	for idx, v := range in.V {
		w := in.Mate[idx]
		if in.G.ID(w)%2 != 1 {
			continue
		}
		for _, nb := range in.G.Neighbors(v) {
			n := int(nb)
			if n != w && in.G.ID(n)%2 == 1 {
				vStar, uNode, wStar = v, n, w
				break
			}
		}
		if vStar != -1 {
			break
		}
	}
	if vStar == -1 {
		return nil, fmt.Errorf("lowerbound: no center with odd partner and odd silent neighbor")
	}

	// Each run installs a fresh shared digest observer; the transcripts it
	// publishes into Result.TranscriptDigests are the Lemma 5/6 "views".
	run := func(g *graph.Graph) (*sim.Result, error) {
		setup, err := sim.NewSetup(g, in.Ports, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}, nil, nil)
		if err != nil {
			return nil, err
		}
		return sim.RunAsync(sim.Config{
			Setup:    setup,
			Schedule: sim.WakeSet{Nodes: in.Centers()},
			Observer: sim.NewDigestObserver(false),
		}, parityProbe{})
	}

	resA, err := run(in.G)
	if err != nil {
		return nil, err
	}

	// Swapped twin: exchange the IDs of w★ and u.
	twin := in.G.Clone()
	ids := make([]graph.NodeID, twin.N())
	for v := 0; v < twin.N(); v++ {
		ids[v] = in.G.ID(v)
	}
	ids[wStar], ids[uNode] = ids[uNode], ids[wStar]
	if err := twin.SetIDs(ids); err != nil {
		return nil, err
	}
	resB, err := run(twin)
	if err != nil {
		return nil, err
	}

	rep := &SwapReport{
		Center:       vStar,
		PartnerID:    in.G.ID(wStar),
		SwappedID:    twin.ID(wStar),
		DigestsEqual: resA.TranscriptDigests[vStar] == resB.TranscriptDigests[vStar],
	}
	rep.AllDigestsEqual = true
	for v := range resA.TranscriptDigests {
		if resA.TranscriptDigests[v] != resB.TranscriptDigests[v] {
			rep.AllDigestsEqual = false
			break
		}
	}
	return rep, nil
}
