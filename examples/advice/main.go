// Advice-length tradeoffs: how many oracle bits buy how many messages?
//
// This example reproduces the information-sensitivity story of §4 on a
// single network: the four advising schemes occupy different points on the
// (advice, messages, time) tradeoff surface, and Theorem 1's lower bound
// says the surface cannot be beaten by polynomial factors. The workload is
// a random sparse graph with a high-degree hub (a caterpillar spine fused
// with random edges) so that per-node advice differences are visible.
//
//	go run ./examples/advice
package main

import (
	"fmt"
	"log"
	"math"

	"riseandshine"
)

func buildNetwork() *riseandshine.Graph {
	// A 600-node random connected graph with a 120-leaf hub attached:
	// tree-based schemes must encode the hub's children somehow, which is
	// exactly what separates Corollary 1, Theorem 5A, and Theorem 5B.
	base := riseandshine.RandomConnected(600, 0.004, 17)
	n := base.N()
	b := riseandshine.NewGraphBuilder(n + 120)
	for _, e := range base.Edges() {
		b.AddEdge(e[0], e[1])
	}
	for l := 0; l < 120; l++ {
		b.AddEdge(0, n+l) // leaves hanging off node 0
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func main() {
	g := buildNetwork()
	diam, err := g.Diameter()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: n=%d m=%d D=%d (sparse graph + 120-leaf hub at node 0)\n\n", g.N(), g.M(), diam)

	fmt.Printf("%-10s | %10s %10s | %8s %9s | %s\n",
		"scheme", "advice-max", "advice-avg", "messages", "time(τ)", "paper bound (max advice)")
	bounds := map[string]string{
		"flood":     "— (no advice, Θ(m) msgs)",
		"fip06":     "O(n) bits          [Cor 1]",
		"threshold": "O(√n·log n) bits   [Thm 5A]",
		"cen":       "O(log n) bits      [Thm 5B]",
		"spanner":   "O(log² n) bits     [Cor 2]",
	}
	for _, alg := range []string{"flood", "fip06", "threshold", "cen", "spanner"} {
		res, err := riseandshine.Run(riseandshine.RunConfig{
			Graph:     g,
			Algorithm: alg,
			Schedule:  riseandshine.WakeSingle(g.N() - 1),
			Delays:    riseandshine.RandomDelay{Seed: 23},
			Ports:     riseandshine.RandomPorts(g, 29),
			Seed:      4,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.AllAwake {
			log.Fatalf("%s: not all nodes woke", alg)
		}
		fmt.Printf("%-10s | %9db %9.1fb | %8d %9.2f | %s\n",
			alg, res.AdviceMaxBits, res.AdviceAvgBits(), res.Messages, float64(res.Span), bounds[alg])
	}

	n := float64(g.N())
	fmt.Printf("\nfor scale: log2 n = %.1f, √n·log2 n = %.0f, n = %.0f\n",
		math.Log2(n), math.Sqrt(n)*math.Log2(n), n)
	fmt.Println("\nTheorem 1 (see cmd/lowerbound -thm 1): with only β bits of advice per node,")
	fmt.Println("Ω(n²/2^β) messages are unavoidable — O(log n)-bit schemes like cen are within")
	fmt.Println("a log factor of the least advice that permits O(n·polylog n) messages.")
}
