package sim

import (
	"math"
	"testing"
	"testing/quick"

	"riseandshine/internal/graph"
)

func TestWakeSetSchedule(t *testing.T) {
	g := graph.Path(5)
	w := WakeSet{Nodes: []int{1, 3}, At: 2.5}.Wakeups(g)
	if len(w) != 2 || w[0].Node != 1 || w[1].Node != 3 || w[0].At != 2.5 {
		t.Errorf("wakeups = %v", w)
	}
}

func TestWakeAllSchedule(t *testing.T) {
	g := graph.Path(4)
	w := WakeAll{}.Wakeups(g)
	if len(w) != 4 {
		t.Fatalf("got %d wakeups", len(w))
	}
	for i, wu := range w {
		if wu.Node != i || wu.At != 0 {
			t.Errorf("wakeup %d = %+v", i, wu)
		}
	}
}

func TestRandomWakeDistinctNodes(t *testing.T) {
	g := graph.Complete(30)
	w := RandomWake{Count: 10, Window: 5, Seed: 3}.Wakeups(g)
	if len(w) != 10 {
		t.Fatalf("got %d wakeups", len(w))
	}
	seen := make(map[int]bool)
	for _, wu := range w {
		if seen[wu.Node] {
			t.Fatal("duplicate node in random wake set")
		}
		seen[wu.Node] = true
		if wu.At < 0 || wu.At > 5 {
			t.Fatalf("wake time %v outside window", wu.At)
		}
	}
}

func TestRandomWakeClampsCount(t *testing.T) {
	g := graph.Path(3)
	if got := len((RandomWake{Count: 99}).Wakeups(g)); got != 3 {
		t.Errorf("count clamped to %d, want 3", got)
	}
	if got := len((RandomWake{Count: 0}).Wakeups(g)); got != 1 {
		t.Errorf("zero count should yield 1 wakeup, got %d", got)
	}
}

func TestStaggeredWakeBatches(t *testing.T) {
	g := graph.Complete(20)
	w := StaggeredWake{Sizes: []int{1, 2, 3}, Gap: 10, Seed: 5}.Wakeups(g)
	if len(w) != 6 {
		t.Fatalf("got %d wakeups", len(w))
	}
	wantTimes := []Time{0, 10, 10, 20, 20, 20}
	for i, wu := range w {
		if wu.At != wantTimes[i] {
			t.Errorf("wakeup %d at %v, want %v", i, wu.At, wantTimes[i])
		}
	}
}

func TestDominatingWakeIsDominating(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw)%80 + 2
		g := graph.RandomConnected(n, 0.05, newTestRand(seed))
		wakeups := DominatingWake{}.Wakeups(g)
		awake := make([]int, 0, len(wakeups))
		for _, w := range wakeups {
			awake = append(awake, w.Node)
		}
		rho := g.AwakeDistance(awake)
		return rho >= 0 && rho <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestWakeSchedulerAllocs pins the scratch-RNG rewrite of the randomized
// wake schedulers: drawing from a value-typed PCG on the stack leaves
// exactly two allocations per Wakeups call — the permutation and the
// schedule slice — where the old implementation also built a ~5 KiB
// rand.NewSource table (plus its rand.Rand wrapper) per run.
func TestWakeSchedulerAllocs(t *testing.T) {
	g := graph.Complete(64)
	var out []Wakeup
	if allocs := testing.AllocsPerRun(50, func() {
		out = RandomWake{Count: 8, Window: 3, Seed: 1}.Wakeups(g)
	}); allocs > 2 {
		t.Errorf("RandomWake.Wakeups allocates %.0f times per call, want ≤ 2", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		out = StaggeredWake{Sizes: []int{4, 4, 4}, Gap: 2, Seed: 1}.Wakeups(g)
	}); allocs > 2 {
		t.Errorf("StaggeredWake.Wakeups allocates %.0f times per call, want ≤ 2", allocs)
	}
	_ = out
}

func TestUnitDelay(t *testing.T) {
	if d := (UnitDelay{}).Delay(0, 1, 0, 0); d != 1 {
		t.Errorf("unit delay = %v", d)
	}
}

// TestRandomDelayRangeProperty: delays always fall in (Min, 1] and are
// deterministic in their arguments.
func TestRandomDelayRangeProperty(t *testing.T) {
	f := func(seed int64, from, to uint16, k uint8) bool {
		d := RandomDelay{Seed: seed}
		v := d.Delay(int(from), int(to), int(k), 0)
		v2 := d.Delay(int(from), int(to), int(k), 7)
		return v > 0 && v <= 1 && v == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomDelayMin(t *testing.T) {
	d := RandomDelay{Seed: 1, Min: 0.9}
	for k := 0; k < 100; k++ {
		v := d.Delay(3, 4, k, 0)
		if v <= 0.9 || v > 1 {
			t.Fatalf("delay %v outside (0.9, 1]", v)
		}
	}
}

// TestDelayIntervalBoundaries pins the floating-point corner the old
// implementation got wrong: min + u·(1-min) can round to exactly min for
// tiny u, breaking the exclusive lower bound. It also checks the Min
// clamping contract for out-of-range values.
func TestDelayIntervalBoundaries(t *testing.T) {
	ulp := math.Nextafter(1, 2) - 1 // 2^-52
	cases := []struct {
		name   string
		min, u float64
	}{
		// 0.5 + 2^-53·0.5 rounds to exactly 0.5 under the naive formula.
		{"rounding collapse", 0.5, ulp / 2},
		{"collapse near 1", 0.875, ulp / 4},
		{"smallest u", 0, 0x1p-53},
		{"u at top", 0.25, 1},
		{"negative min clamps to 0", -0.5, 0x1p-53},
		{"min 1 clamps below 1", 1, 0x1p-53},
		{"min above 1 clamps below 1", 1.5, 0.5},
		{"NaN min clamps to 0", math.NaN(), 0.5},
	}
	for _, c := range cases {
		got := delayInterval(c.min, c.u)
		lo := c.min
		switch {
		case !(lo > 0):
			lo = 0
		case lo >= 1:
			lo = math.Nextafter(1, 0)
		}
		if !(got > lo) || !(got <= 1) {
			t.Errorf("%s: delayInterval(%v, %v) = %v, want in (%v, 1]", c.name, c.min, c.u, got, lo)
		}
	}
}

// TestDelayIntervalDefaultUnchanged pins bit-identity of the Min = 0 path
// with the pre-guard implementation (plain u): every recorded digest and
// differential baseline depends on the default RandomDelay stream not
// shifting.
func TestDelayIntervalDefaultUnchanged(t *testing.T) {
	for _, seed := range []int64{0, 1, 42} {
		d := RandomDelay{Seed: seed}
		for k := 0; k < 50; k++ {
			want := hashUnit(seed, 3, 4, k)
			if got := d.Delay(3, 4, k, 0); got != want {
				t.Fatalf("seed %d k %d: default delay %v != hashUnit %v", seed, k, got, want)
			}
		}
	}
}

// TestRandomDelayMinSweep checks the (Min, 1] guarantee across a grid of
// Min values, edges, and message indices — including Min values where the
// interval (Min, 1] is only a few ULPs wide.
func TestRandomDelayMinSweep(t *testing.T) {
	mins := []float64{0, 0.1, 0.5, 0.9, 0.999999, 1 - 0x1p-50, math.Nextafter(1, 0)}
	for _, min := range mins {
		d := RandomDelay{Seed: 9, Min: min}
		for from := 0; from < 4; from++ {
			for k := 0; k < 25; k++ {
				v := d.Delay(from, from+1, k, 0)
				if !(v > min) || !(v <= 1) {
					t.Fatalf("Min=%v from=%d k=%d: delay %v outside (Min, 1]", min, from, k, v)
				}
			}
		}
	}
}

func TestBiasedDelay(t *testing.T) {
	d := BiasedDelay{Slow: map[[2]int]bool{{0, 1}: true}, Fast: 0.1}
	if v := d.Delay(0, 1, 0, 0); v != 1 {
		t.Errorf("slow edge delay = %v", v)
	}
	if v := d.Delay(1, 0, 0, 0); v != 0.1 {
		t.Errorf("fast edge delay = %v", v)
	}
	dflt := BiasedDelay{}
	if v := dflt.Delay(2, 3, 0, 0); v <= 0 || v > 1 {
		t.Errorf("default fast delay %v outside (0,1]", v)
	}
	// A NaN Fast clamps to the default like any value outside (0, 1].
	nan := BiasedDelay{Fast: math.NaN()}
	if v, w := nan.Delay(2, 3, 0, 0), nan.Lookahead(); v != 0.01 || w != 0.01 {
		t.Errorf("Fast=NaN: delay %v, lookahead %v, want 0.01 and 0.01", v, w)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		// Degenerate sizes clamp to 1 bit.
		{0, 1},
		{1, 1},
		{2, 1},
		// Powers of two and their off-by-one neighbors.
		{3, 2}, {4, 2}, {5, 3},
		{7, 3}, {8, 3}, {9, 4},
		{15, 4}, {16, 4}, {17, 5},
		{31, 5}, {32, 5}, {33, 6},
		{63, 6}, {64, 6}, {65, 7},
		{127, 7}, {128, 7}, {129, 8},
		{255, 8}, {256, 8}, {257, 9},
		{1023, 10}, {1024, 10}, {1025, 11},
		{1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, tc := range cases {
		if got := CeilLog2(tc.n); got != tc.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestModelStrings(t *testing.T) {
	m := Model{Knowledge: KT1, Bandwidth: Local}
	if m.String() != "KT1 LOCAL" {
		t.Errorf("model string = %q", m.String())
	}
	if KT0.String() != "KT0" || Congest.String() != "CONGEST" {
		t.Error("constant strings wrong")
	}
}
