package riseandshine_test

import (
	"fmt"

	"riseandshine"
)

// Wake a grid from one corner with the child-encoding scheme of
// Theorem 5(B). Unit delays make the run fully deterministic.
func ExampleRun() {
	g := riseandshine.Grid(8, 8)
	res, err := riseandshine.Run(riseandshine.RunConfig{
		Graph:     g,
		Algorithm: "cen",
		Schedule:  riseandshine.WakeSingle(0),
		Seed:      1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("all awake: %v\n", res.AllAwake)
	fmt.Printf("messages:  %d (nodes: %d)\n", res.Messages, res.N)
	// Output:
	// all awake: true
	// messages:  126 (nodes: 64)
}

// The awake distance ρ_awk (§1.2) is the time flooding needs: the farthest
// node from the awake set.
func ExampleGraph_awakeDistance() {
	g := riseandshine.Path(10)
	fmt.Println(g.AwakeDistance([]int{0}))
	fmt.Println(g.AwakeDistance([]int{0, 9}))
	// Output:
	// 9
	// 4
}

// Inspect the registry.
func ExampleLookup() {
	info, _ := riseandshine.Lookup("fast-wakeup")
	fmt.Println(info.Paper)
	fmt.Println(info.Model)
	// Output:
	// Theorem 4
	// KT1 LOCAL
}
