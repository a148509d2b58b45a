package graph

import (
	"math/rand"
	"testing"
)

// BenchmarkRandomPorts builds a uniformly random port map, as every
// RandomPorts cell of cmd/table1, cmd/sweep and cmd/lowerbound does, on the
// largest table1 graph and on a dense clique. The file uses only the
// public API, so it runs unchanged on older checkouts.
func BenchmarkRandomPorts(b *testing.B) {
	shapes := []struct {
		name string
		g    *Graph
	}{
		{"connected:2048:0.05", RandomConnected(2048, 0.05, rand.New(rand.NewSource(1)))},
		{"complete:2000", Complete(2000)},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				benchSink = RandomPorts(shape.g, rng).Neighbor(0, 1)
			}
		})
	}
}
