package sim

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"riseandshine/internal/graph"
)

// chattyAlg stresses the per-edge FIFO bookkeeping: on wake and on every
// received message (up to a budget) a node sends several messages to one
// random neighbor, producing many same-edge messages whose raw random
// delays would reorder without the FIFO clamp.
type chattyAlg struct{}

func (chattyAlg) Name() string { return "chatty" }

func (chattyAlg) NewMachine(info NodeInfo) Program { return &chattyMachine{budget: 6} }

type chattyMachine struct{ budget int }

type chattyMsg struct{}

func (chattyMsg) Bits() int { return 1 }

func (m *chattyMachine) burst(ctx Context) {
	if m.budget <= 0 || ctx.Info().Degree == 0 {
		return
	}
	m.budget--
	p := 1 + ctx.Rand().Intn(ctx.Info().Degree)
	for i := 0; i < 3; i++ {
		ctx.Send(p, chattyMsg{})
	}
}

func (m *chattyMachine) OnWake(ctx Context)                { m.burst(ctx) }
func (m *chattyMachine) OnMessage(ctx Context, _ Delivery) { m.burst(ctx) }

// TestFlatArrayFIFOUnderRandomDelay is the property test for the
// flat-array (CSR-indexed) FIFO path: with adversarial random delays,
// deliveries on every directed edge must still arrive in non-decreasing
// time order. The directed edge of a delivery is identified from the
// trace by (receiver, receiver port), which is fixed for the run.
func TestFlatArrayFIFOUnderRandomDelay(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"complete:12", graph.Complete(12)},
		{"torus:4x4", graph.Torus(4, 4)},
		{"gnp:60:0.1", graph.RandomGNP(60, 0.1, rand.New(rand.NewSource(3)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var trace bytes.Buffer
			_, err := RunAsync(Config{
				Graph: tc.g,
				Model: Model{Knowledge: KT0, Bandwidth: Local},
				Adversary: Adversary{
					Schedule: WakeAll{},
					Delays:   RandomDelay{Seed: 11},
				},
				Seed:     7,
				Observer: NewTraceObserver(&trace),
			}, chattyAlg{})
			if err != nil {
				t.Fatal(err)
			}

			type edge struct{ node, port int }
			last := make(map[edge]float64)
			count := 0
			for i, line := range strings.Split(trace.String(), "\n") {
				if i == 0 || line == "" { // header / trailing newline
					continue
				}
				fields := strings.Split(line, ",")
				if fields[1] != "deliver" {
					continue
				}
				at, err := strconv.ParseFloat(fields[0], 64)
				if err != nil {
					t.Fatalf("trace line %d: bad time %q", i, fields[0])
				}
				node, _ := strconv.Atoi(fields[2])
				port, _ := strconv.Atoi(fields[3])
				e := edge{node, port}
				if prev, ok := last[e]; ok && at < prev {
					t.Fatalf("FIFO violation on edge into node %d port %d: delivery at %g after %g",
						node, port, at, prev)
				}
				last[e] = at
				count++
			}
			if count == 0 {
				t.Fatal("trace recorded no deliveries")
			}
		})
	}
}

// TestFlatArrayMatchesDelayerContract: the k passed to the Delayer counts
// messages per directed edge, in order, starting at zero — the contract
// the flat edgeSeq slice must preserve.
func TestFlatArrayMatchesDelayerContract(t *testing.T) {
	g := graph.Complete(6)
	rec := &recordingDelayer{seen: make(map[[2]int][]int)}
	_, err := RunAsync(Config{
		Graph: g,
		Model: Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{
			Schedule: WakeAll{},
			Delays:   rec,
		},
		Seed: 5,
	}, chattyAlg{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.seen) == 0 {
		t.Fatal("delayer saw no messages")
	}
	for e, ks := range rec.seen {
		for i, k := range ks {
			if k != i {
				t.Fatalf("edge %v: %d-th message reported k=%d", e, i, k)
			}
		}
	}
}

type recordingDelayer struct {
	seen map[[2]int][]int
}

func (r *recordingDelayer) Delay(from, to, k int, _ Time) float64 {
	r.seen[[2]int{from, to}] = append(r.seen[[2]int{from, to}], k)
	return 1
}

// quantizedDelay rounds adversarial random delays up onto a coarse grid of
// q steps, so distinct messages frequently collide on identical delivery
// timestamps and the engine must fall back to the seq tie-break. It stays
// within the Delayer contract: values lie in {1/q, 2/q, ..., 1} ⊂ (0, 1].
type quantizedDelay struct {
	inner RandomDelay
	q     int
}

func (d quantizedDelay) Delay(from, to, k int, now Time) float64 {
	raw := d.inner.Delay(from, to, k, now)
	steps := int(raw * float64(d.q))
	if float64(steps) < raw*float64(d.q) { // ceil
		steps++
	}
	if steps < 1 {
		steps = 1
	}
	if steps > d.q {
		steps = d.q
	}
	return float64(steps) / float64(d.q)
}

// FuzzFIFODeterminism drives the monomorphic event heap through whole-engine
// runs under adversarial quantized delays (many duplicate timestamps) and
// asserts the engine's two ordering contracts at once:
//
//   - per-directed-edge FIFO: deliveries on each (receiver, port) pair carry
//     non-decreasing times, and the global event stream is replayed in
//     non-decreasing time order ((at, seq) total order);
//   - determinism under reuse: a recycled engine reproduces the fresh
//     engine's trace and Result byte for byte.
func FuzzFIFODeterminism(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(2), uint8(6))
	f.Add(int64(-9), uint8(7), uint8(1), uint8(12))
	f.Add(int64(1<<33), uint8(255), uint8(4), uint8(3))
	reused := &Engine{}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, qRaw, budget uint8) {
		n := int(nRaw)%40 + 2
		q := int(qRaw)%8 + 1 // coarse grids maximize timestamp collisions
		g := graph.RandomConnected(n, 0.15, newTestRand(seed))
		pm := graph.RandomPorts(g, newTestRand(seed+1))
		model := Model{Knowledge: KT0, Bandwidth: Local}
		run := func(eng *Engine) (*Result, string) {
			var trace bytes.Buffer
			res, err := eng.Run(Config{
				Graph: g,
				Ports: pm,
				Model: model,
				Adversary: Adversary{
					Schedule: RandomWake{Count: int(nRaw)%3 + 1, Window: 2, Seed: seed},
					Delays:   quantizedDelay{inner: RandomDelay{Seed: seed}, q: q},
				},
				Seed:     seed,
				Observer: StackObservers(NewTraceObserver(&trace), NewDigestObserver(false), NewModelCheck(g, pm, model)),
			}, fuzzAlg{budget: int(budget)%16 + 1})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			return res, trace.String()
		}
		fresh, freshTrace := run(&Engine{})
		again, reusedTrace := run(reused)

		if freshTrace != reusedTrace {
			t.Fatal("reused engine produced a different event trace")
		}
		if a, b := marshalDigested(t, fresh), marshalDigested(t, again); !bytes.Equal(a, b) {
			t.Fatalf("reused engine produced a different Result:\nfresh:  %s\nreused: %s", a, b)
		}

		type edge struct{ node, port int }
		lastEdge := make(map[edge]float64)
		lastAt := 0.0
		deliveries := 0
		for i, line := range strings.Split(freshTrace, "\n") {
			if i == 0 || line == "" {
				continue
			}
			fields := strings.Split(line, ",")
			at, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				t.Fatalf("trace line %d: bad time %q", i, fields[0])
			}
			if at < lastAt {
				t.Fatalf("event replay out of time order: %g after %g (line %d)", at, lastAt, i)
			}
			lastAt = at
			if fields[1] != "deliver" {
				continue
			}
			node, _ := strconv.Atoi(fields[2])
			port, _ := strconv.Atoi(fields[3])
			e := edge{node, port}
			if prev, ok := lastEdge[e]; ok && at < prev {
				t.Fatalf("FIFO violation on edge into node %d port %d: %g after %g", node, port, at, prev)
			}
			lastEdge[e] = at
			deliveries++
		}
		if deliveries == 0 && fresh.Messages > 0 {
			t.Fatal("trace recorded no deliveries despite message traffic")
		}
	})
}
