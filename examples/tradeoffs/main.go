// Tradeoff figures: render the Table 1 landscape as terminal plots.
//
// The example sweeps the network size for four representative algorithms
// and draws log–log ASCII figures of their message and time costs,
// visualizing the separations the paper proves: flooding's Θ(m) versus
// near-linear structured schemes, and the time premium the message-frugal
// schemes pay.
//
//	go run ./examples/tradeoffs
package main

import (
	"fmt"
	"log"

	"riseandshine"
	"riseandshine/internal/stats"
)

func main() {
	sizes := []int{128, 256, 512, 1024}
	// Later series overdraw earlier ones where points coincide; cen goes
	// last so its exactly-2(n−1) curve stays visible.
	algs := []struct {
		name   string
		marker byte
	}{
		{"flood", 'f'},
		{"spanner", 's'},
		{"dfs-rank", 'd'},
		{"cen", 'c'},
	}

	msgSeries := make([]stats.Series, len(algs))
	timeSeries := make([]stats.Series, len(algs))
	for i, a := range algs {
		msgSeries[i] = stats.Series{Name: a.name, Marker: a.marker}
		timeSeries[i] = stats.Series{Name: a.name, Marker: a.marker}
	}

	for _, n := range sizes {
		// Constant edge density: m grows as Θ(n²), so flooding's Θ(m)
		// bill separates visibly from the near-linear schemes.
		g := riseandshine.RandomConnected(n, 0.08, int64(n))
		ports := riseandshine.RandomPorts(g, int64(n))
		for i, a := range algs {
			res, err := riseandshine.Run(riseandshine.RunConfig{
				Graph:     g,
				Algorithm: a.name,
				Schedule:  riseandshine.WakeSingle(0),
				Delays:    riseandshine.RandomDelay{Seed: int64(n)},
				Ports:     ports,
				Seed:      int64(n),
			})
			if err != nil {
				log.Fatal(err)
			}
			if !res.AllAwake {
				log.Fatalf("%s on n=%d: not all awake", a.name, n)
			}
			msgSeries[i].Points = append(msgSeries[i].Points,
				stats.Point{N: float64(n), Y: float64(res.Messages)})
			timeSeries[i].Points = append(timeSeries[i].Points,
				stats.Point{N: float64(n), Y: float64(res.Span)})
		}
	}

	fmt.Print(stats.Plot(stats.PlotConfig{
		Title: "messages vs n (log–log): f=flood c=cen s=spanner d=dfs-rank",
		LogX:  true, LogY: true, Height: 16,
	}, msgSeries...))
	fmt.Println()
	fmt.Print(stats.Plot(stats.PlotConfig{
		Title: "time (τ) vs n (log–log)",
		LogX:  true, LogY: true, Height: 16,
	}, timeSeries...))

	fmt.Println()
	for _, s := range msgSeries {
		slope, _ := stats.LogLogFit(s.Points)
		fmt.Printf("%-9s message growth exponent ≈ %.2f\n", s.Name, slope)
	}
	fmt.Println("\nflooding grows with m; cen stays exactly 2(n−1); dfs-rank pays Θ(n) time")
	fmt.Println("for its Õ(n) messages — the tradeoffs of Table 1, drawn.")
}
