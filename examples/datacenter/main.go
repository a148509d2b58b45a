// Datacenter wake-up: the scenario motivating the paper's introduction.
// Idle servers sleep to save power (Wake-on-LAN); a management node must
// wake the whole fleet with few packets.
//
// The topology is a two-tier leaf–spine fabric: spine switches fully
// connected to top-of-rack (ToR) switches, each ToR connected to its
// rack's servers. The network operator knows the full topology ahead of
// time, which is exactly the advising-scheme setting: an oracle
// precomputes a few bits per NIC, and the wake-up then runs with O(n)
// "magic packets" instead of flooding every link.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"log"

	"riseandshine"
)

const (
	spines         = 4
	racks          = 16
	serversPerRack = 24
)

// buildFabric returns the leaf–spine topology plus the index of the
// management server (a server in rack 0).
func buildFabric() (*riseandshine.Graph, int) {
	n := spines + racks + racks*serversPerRack
	b := riseandshine.NewGraphBuilder(n)
	// Indices: spines [0,spines), ToRs [spines, spines+racks), servers after.
	for s := 0; s < spines; s++ {
		for t := 0; t < racks; t++ {
			b.AddEdge(s, spines+t)
		}
	}
	server := func(rack, i int) int { return spines + racks + rack*serversPerRack + i }
	for t := 0; t < racks; t++ {
		for i := 0; i < serversPerRack; i++ {
			b.AddEdge(spines+t, server(t, i))
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g, server(0, 0)
}

func main() {
	g, mgmt := buildFabric()
	diam, err := g.Diameter()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leaf–spine fabric: %d spines, %d racks × %d servers = %d nodes, %d links, diameter %d\n",
		spines, racks, serversPerRack, g.N(), g.M(), diam)
	fmt.Printf("management server (index %d) wakes the fleet\n\n", mgmt)

	fmt.Printf("%-10s %9s %9s %12s %12s %10s\n",
		"scheme", "packets", "time(τ)", "advice-max", "advice-avg", "all-awake")
	for _, alg := range []string{"flood", "fip06", "threshold", "cen", "spanner"} {
		res, err := riseandshine.Run(riseandshine.RunConfig{
			Graph:     g,
			Algorithm: alg,
			Schedule:  riseandshine.WakeSingle(mgmt),
			Delays:    riseandshine.RandomDelay{Seed: 3},
			Ports:     riseandshine.RandomPorts(g, 5),
			Seed:      9,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %9d %9.2f %9db %11.1fb %10v\n",
			alg, res.Messages, float64(res.Span), res.AdviceMaxBits, res.AdviceAvgBits(), res.AllAwake)
	}

	fmt.Println("\nflooding exercises every fabric link; the advising schemes wake the fleet")
	fmt.Println("with ≈2 packets per node. The child-encoding scheme (cen) additionally caps")
	fmt.Println("the per-NIC configuration at O(log n) bits — a ToR with hundreds of servers")
	fmt.Println("does not need to store its whole child list (Theorem 5B).")
}
