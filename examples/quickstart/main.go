// Quickstart: wake up a 16×16 grid from a single adversarially-woken node
// with the child-encoding scheme of Theorem 5(B) and compare it to plain
// flooding.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"riseandshine"
)

func main() {
	g := riseandshine.Grid(16, 16)
	diam, err := g.Diameter()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d nodes, %d edges, diameter %d\n\n", g.N(), g.M(), diam)

	for _, alg := range []string{"flood", "cen"} {
		res, err := riseandshine.Run(riseandshine.RunConfig{
			Graph:     g,
			Algorithm: alg,
			Schedule:  riseandshine.WakeSingle(0),         // the adversary wakes the corner node
			Delays:    riseandshine.RandomDelay{Seed: 42}, // adversarial asynchrony
			Ports:     riseandshine.RandomPorts(g, 7),     // adversarial port numbering
			Seed:      1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s all awake: %v  messages: %4d  time: %6.2f τ  advice: max %d bits\n",
			alg, res.AllAwake, res.Messages, float64(res.Span), res.AdviceMaxBits)
	}

	fmt.Println("\nflooding crosses every edge twice; the advising scheme pays only ~2 messages")
	fmt.Println("per node at O(log n) advice bits, trading a log factor in time (Theorem 5B).")
}
