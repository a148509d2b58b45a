package sim

import "testing"

// Layer benchmarks: the cost of one call into a layer that the send path
// or a handler runs per message, measured alone. End-to-end runs fold
// these into ns/event; here each is its own figure. One op makes
// layerCalls calls, so a single op is a sample (scripts/bench.sh quick
// runs -benchtime 1x), and ns/call divides the op time by them.
const layerCalls = 1 << 20

// The benchmarks fold their results into these so the calls are kept.
var (
	layerSinkF float64
	layerSinkU uint64
)

func reportPerCall(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*layerCalls), "ns/call")
}

// BenchmarkDelay measures one Delayer.Delay call through the interface, as
// the send path makes it, for each delay strategy: the constant UnitDelay,
// RandomDelay's hash over (seed, edge, message index) with and without a
// lower bound, and BiasedDelay's map lookup with two slow edges. The
// arguments change every call, as they do between sends.
func BenchmarkDelay(b *testing.B) {
	for _, row := range []struct {
		name string
		d    Delayer
	}{
		{"unit", UnitDelay{}},
		{"random", RandomDelay{Seed: 1}},
		{"random:0.25", RandomDelay{Seed: 1, Min: 0.25}},
		{"biased", BiasedDelay{Slow: map[[2]int]bool{{0, 1}: true, {3, 2}: true}, Fast: 0.2}},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum float64
			for i := 0; i < b.N; i++ {
				for j := 0; j < layerCalls; j++ {
					sum += row.d.Delay(j&1023, (j+1)&1023, j>>10, 0)
				}
			}
			layerSinkF = sum
			reportPerCall(b)
		})
	}
}

// BenchmarkPCG measures one draw from a node's generator: a raw Uint64,
// and Float64, the form the randomized algorithms and schedules draw most.
func BenchmarkPCG(b *testing.B) {
	b.Run("Uint64", func(b *testing.B) {
		b.ReportAllocs()
		p := NewPCG(1)
		var x uint64
		for i := 0; i < b.N; i++ {
			for j := 0; j < layerCalls; j++ {
				x ^= p.Uint64()
			}
		}
		layerSinkU = x
		reportPerCall(b)
	})
	b.Run("Float64", func(b *testing.B) {
		b.ReportAllocs()
		p := NewPCG(1)
		var f float64
		for i := 0; i < b.N; i++ {
			for j := 0; j < layerCalls; j++ {
				f += p.Float64()
			}
		}
		layerSinkF = f
		reportPerCall(b)
	})
}
