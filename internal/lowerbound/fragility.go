package lowerbound

import (
	"math"

	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// StarSampling is the executable form of the §1.3 observation about why
// the King–Mashregi-style asynchronous KT1 MST algorithm fails under
// adversarial wake-up. In that algorithm, a node becomes a "star" with
// probability 1/√(n·log n); a non-star whose degree exceeds √n·log^{3/2} n
// remains silent until it receives a message. If the adversary wakes
// exactly one high-degree node, that node becomes a silent non-star with
// probability 1 − 1/√(n·log n) and the whole execution stalls.
//
// The type implements the wake phase of that strategy so the failure mode
// can be measured: across seeds, the fraction of executions in which
// nothing at all happens approaches 1 − 1/√(n·log n).
type StarSampling struct {
	// StarProb overrides the 1/√(n·log n) sampling probability.
	StarProb float64
	// DegreeThreshold overrides the √n·log^{3/2} n silence threshold.
	DegreeThreshold float64
}

var _ sim.Algorithm = StarSampling{}

// Name implements sim.Algorithm.
func (StarSampling) Name() string { return "star-sampling" }

// NewMachine implements sim.Algorithm.
func (a StarSampling) NewMachine(info sim.NodeInfo) sim.Program {
	n := float64(info.N)
	p := a.StarProb
	if p <= 0 {
		p = 1 / math.Sqrt(n*math.Log(n))
	}
	thr := a.DegreeThreshold
	if thr <= 0 {
		thr = math.Sqrt(n) * math.Pow(math.Log(n), 1.5)
	}
	return &starMachine{info: info, starProb: p, threshold: thr}
}

type starMachine struct {
	info      sim.NodeInfo
	starProb  float64
	threshold float64
	active    bool
}

func (m *starMachine) OnWake(ctx sim.Context) {
	if ctx.AdversarialWake() {
		if ctx.Rand().Float64() < m.starProb {
			// Star: announce to all neighbors (fragment formation).
			m.active = true
			ctx.Broadcast(WakeProbe{})
			return
		}
		if float64(m.info.Degree) > m.threshold {
			// High-degree non-star: remain silent until contacted — the
			// fatal state under adversarial wake-up.
			return
		}
		// Low-degree non-star: contact the lowest-ID neighbor (fragment
		// joining in the original algorithm).
		m.active = true
		if m.info.Degree > 0 {
			ctx.Send(1, WakeProbe{})
		}
		return
	}
	// Woken by a message: participate by flooding onward (any reasonable
	// continuation would do; the damage is done in the first step).
	m.active = true
	ctx.Broadcast(WakeProbe{})
}

func (m *starMachine) OnMessage(sim.Context, sim.Delivery) {}

// WakeProbe is the generic probe message of the lower-bound strategies.
type WakeProbe struct{}

// Bits implements sim.Message.
func (WakeProbe) Bits() int { return 4 }

// StallFraction runs StarSampling over the given seeds, waking only the
// given node (intended: a node of degree above the threshold), and returns
// the fraction of executions in which no message was ever sent — the
// stall probability the paper's §1.3 argument predicts to be
// 1 − 1/√(n·log n).
func StallFraction(g *graph.Graph, wakeNode int, seeds []int64) (float64, error) {
	setup, err := sim.NewSetup(g, nil, sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}, nil, nil)
	if err != nil {
		return 0, err
	}
	stalls := 0
	for _, seed := range seeds {
		res, err := sim.RunAsync(sim.Config{
			Setup:    setup,
			Schedule: sim.WakeSingle(wakeNode),
			Seed:     seed,
		}, StarSampling{})
		if err != nil {
			return 0, err
		}
		if res.Messages == 0 {
			stalls++
		}
	}
	return float64(stalls) / float64(len(seeds)), nil
}
