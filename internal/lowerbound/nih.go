package lowerbound

import (
	"riseandshine/internal/advice"
	"riseandshine/internal/sim"
)

// The needles-in-haystack (NIH) problem of §2 asks every center v_i to
// identify the edge to its crucial neighbor w_i. Lemma 1 reduces wake-up
// to NIH at an additive cost of n messages and one time unit: since each
// w_i has degree one, it wakes if and only if v_i sends across the crucial
// edge. Operationally the harness therefore runs a wake-up algorithm with
// the centers as the awake set and counts woken partners.

// Report summarizes one lower-bound experiment run.
type Report struct {
	// Result is the underlying execution result.
	Result *sim.Result
	// NeedlesFound is the number of centers whose crucial partner woke,
	// i.e. solved NIH instances (out of len(Inst.V)).
	NeedlesFound int
	// Solved reports whether every needle was found.
	Solved bool
}

// Run executes alg on the instance with the centers as the adversary's
// awake set, under the given model, delays and optional oracle, and
// evaluates the NIH criterion.
func Run(in *Instance, model sim.Model, alg sim.Algorithm, oracle advice.Oracle, delays sim.Delayer, seed int64) (*Report, error) {
	var adv [][]byte
	var bits []int
	var err error
	if oracle != nil {
		if adv, bits, err = oracle.Advise(in.G, in.Ports); err != nil {
			return nil, err
		}
	}
	setup, err := sim.NewSetup(in.G, in.Ports, model, adv, bits)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunAsync(sim.Config{
		Setup:      setup,
		Schedule:   sim.WakeSet{Nodes: in.Centers()},
		Delays:     delays,
		Seed:       seed,
		TrackPorts: true,
	}, alg)
	if err != nil {
		return nil, err
	}
	return Evaluate(in, res), nil
}

// Evaluate derives the NIH report from a finished execution.
func Evaluate(in *Instance, res *sim.Result) *Report {
	found := 0
	for _, w := range in.W {
		if res.WakeAt[w] >= 0 {
			found++
		}
	}
	return &Report{
		Result:       res,
		NeedlesFound: found,
		Solved:       found == len(in.W),
	}
}

// MaxCenterPortsUsed returns the maximum number of distinct ports used by
// any center — the quantity bounded by the event Sml_i in the Theorem 1
// proof (a center is "small" when it uses at most n/2^β ports).
func MaxCenterPortsUsed(in *Instance, res *sim.Result) int {
	if res.PortsUsed == nil {
		return -1
	}
	max := 0
	for _, v := range in.V {
		if res.PortsUsed[v] > max {
			max = res.PortsUsed[v]
		}
	}
	return max
}
