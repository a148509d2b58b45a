package experiment

import (
	"os"
	"strings"
	"testing"

	"riseandshine/internal/sim"
)

func TestParseGraphSpecs(t *testing.T) {
	cases := []struct {
		spec string
		n, m int
	}{
		{"path:5", 5, 4},
		{"cycle:6", 6, 6},
		{"star:4", 4, 3},
		{"complete:5", 5, 10},
		{"bipartite:2:3", 5, 6},
		{"grid:3x4", 12, 17},
		{"torus:3x3", 9, 18},
		{"hypercube:3", 8, 12},
		{"lollipop:4:2", 6, 8},
		{"binary:7", 7, 6},
		{"caterpillar:3:2", 9, 8},
		{"tree:20", 20, 19},
		{"wheel:6", 6, 10},
		{"kary:13:3", 13, 12},
		{"regular:10:4", 10, 20},
	}
	for _, tc := range cases {
		g, err := ParseGraph(tc.spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if g.N() != tc.n || g.M() != tc.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", tc.spec, g.N(), g.M(), tc.n, tc.m)
		}
	}
}

func TestParseGraphRandomFamilies(t *testing.T) {
	g, err := ParseGraph("connected:50:0.05", 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 50 || !g.Connected() {
		t.Error("connected family malformed")
	}
	gnp, err := ParseGraph("gnp:40:0.2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if gnp.N() != 40 {
		t.Error("gnp family malformed")
	}
	db, err := ParseGraph("debruijn:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if db.N() != 16 || !db.Connected() {
		t.Error("debruijn family malformed")
	}
	// Same seed reproduces the same graph.
	g2, err := ParseGraph("connected:50:0.05", 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != g2.M() {
		t.Error("graph parsing not seed-deterministic")
	}
}

func TestParseGraphErrors(t *testing.T) {
	for _, spec := range []string{
		"nosuch:4", "path", "grid:4", "grid:4y4", "bipartite:3",
		"gnp:10", "path:x", "connected:10:y",
		// Each of these used to reach a generator that panics.
		"grid:-1x3", "path:-5", "hypercube:40", "binary:-3",
		"connected:-4:0.1", "cycle:2", "torus:1x1", "complete:70000",
		"hypercube:27", "wheel:3", "lollipop:0:3", "kary:5:0",
		"regular:5:3", "regular:4:4", "ba:3:3", "ba:5:0", "gnp:10:1.5",
		"gnp:10:NaN", "grid:65536x65536", "path:9999999999",
		"gnp:100000:0.5",
	} {
		if _, err := ParseGraph(spec, 1); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

// FuzzParseGraph checks that every spec gives a graph or an error, never
// a panic. A spec that parses is built only when its checked size is
// small, so the fuzzer cannot exhaust memory; file: specs read the file
// system and are left to TestParseGraphFromFile.
func FuzzParseGraph(f *testing.F) {
	for _, spec := range []string{
		"path:5", "cycle:6", "grid:3x4", "torus:3x3", "hypercube:3",
		"lollipop:4:2", "caterpillar:3:2", "kary:13:3", "debruijn:4",
		"regular:10:4", "ba:20:3", "gnp:30:0.2", "connected:30:0.1",
		"bipartite:2:3", "wheel:6", "star:4", "binary:7", "tree:9",
		"complete:70000", "grid:-1x3", "cycle:2", "hypercube:40",
	} {
		f.Add(spec, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		if strings.HasPrefix(spec, "file:") {
			return
		}
		gs, err := parseGraphSpec(spec)
		if err != nil {
			if _, err := ParseGraph(spec, seed); err == nil {
				t.Fatalf("%q: ParseGraph builds what parseGraphSpec rejects", spec)
			}
			return
		}
		cost := gs.nodes + gs.edges
		if gs.family.args == "N:P" {
			cost = gs.nodes * gs.nodes // one coin per node pair
		}
		if cost > 1<<16 {
			return
		}
		g, err := ParseGraph(spec, seed)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if g.N() != gs.nodes {
			t.Fatalf("%q: %d nodes, checked size %d", spec, g.N(), gs.nodes)
		}
	})
}

func TestParseGraphFromFile(t *testing.T) {
	path := t.TempDir() + "/g.txt"
	if err := os.WriteFile(path, []byte("n 3\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ParseGraph("file:"+path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("file graph: n=%d m=%d", g.N(), g.M())
	}
	if _, err := ParseGraph("file:/does/not/exist", 1); err == nil {
		t.Error("expected error for missing file")
	}
	if _, err := ParseGraph("file", 1); err == nil {
		t.Error("expected error for missing path")
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.Add(1, "x,y")
	path := t.TempDir() + "/out/table.csv"
	if err := tbl.WriteCSV(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if string(data) != want {
		t.Errorf("csv = %q, want %q", data, want)
	}
}

func TestParseScheduleSpecs(t *testing.T) {
	g, _ := ParseGraph("path:10", 1)
	cases := map[string]int{
		"single":             1,
		"single:3":           1,
		"all":                10,
		"random:4":           4,
		"random:3:2.5":       3,
		"staggered:1,2,3:10": 6,
	}
	for spec, want := range cases {
		s, err := ParseSchedule(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := len(s.Wakeups(g)); got != want {
			t.Errorf("%s: %d wakeups, want %d", spec, got, want)
		}
	}
	dom, err := ParseSchedule("dominating", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dom.Wakeups(g)) == 0 {
		t.Error("dominating schedule empty")
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{"bogus", "single:x", "random:y", "staggered:1,2", "staggered:a:3"} {
		if _, err := ParseSchedule(spec, 1); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

func TestParseDelays(t *testing.T) {
	if d, err := ParseDelays("", 1); err != nil || d == nil {
		t.Error("empty delay spec should default to unit")
	}
	if _, err := ParseDelays("unit", 1); err != nil {
		t.Error("unit delays should parse")
	}
	d, err := ParseDelays("random", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.Delay(0, 1, 0, 0); v <= 0 || v > 1 {
		t.Errorf("random delay %v outside range", v)
	}
	if _, err := ParseDelays("bogus", 1); err == nil {
		t.Error("bogus delay spec should fail")
	}
}

func TestParseDelaysMin(t *testing.T) {
	d, err := ParseDelays("random:0.5", 1)
	if err != nil {
		t.Fatal(err)
	}
	rd, ok := d.(sim.RandomDelay)
	if !ok || rd.Min != 0.5 {
		t.Fatalf("random:0.5 parsed to %#v", d)
	}
	for k := 0; k < 50; k++ {
		if v := d.Delay(0, 1, k, 0); v <= 0.5 || v > 1 {
			t.Fatalf("delay %v outside (0.5, 1]", v)
		}
	}
	for _, spec := range []string{"random:", "random:x", "random:-0.1", "random:1", "random:1.5", "random:NaN"} {
		if _, err := ParseDelays(spec, 1); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

func TestParseQueue(t *testing.T) {
	cases := []struct {
		spec string
		want sim.QueueKind
	}{
		{"", sim.QueueHeap},
		{"heap", sim.QueueHeap},
		{"calendar", sim.QueueCalendar},
	}
	for _, c := range cases {
		got, err := ParseQueue(c.spec)
		if err != nil || got != c.want {
			t.Errorf("ParseQueue(%q) = %v, %v; want %v", c.spec, got, err, c.want)
		}
	}
	if _, err := ParseQueue("fibonacci"); err == nil {
		t.Error("unknown queue kind should fail")
	}
}

func TestSingleScheduleTargetsNode(t *testing.T) {
	g, _ := ParseGraph("path:10", 1)
	s, err := ParseSchedule("single:7", 1)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Wakeups(g)
	if len(w) != 1 || w[0].Node != 7 {
		t.Errorf("wakeups = %v", w)
	}
}

func TestStaggeredScheduleTiming(t *testing.T) {
	g, _ := ParseGraph("complete:20", 1)
	s, err := ParseSchedule("staggered:2,2:5", 3)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Wakeups(g)
	if w[0].At != 0 || w[2].At != sim.Time(5) {
		t.Errorf("staggered times wrong: %v", w)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"name", "value"}}
	tbl.Add("alpha", 3)
	tbl.Add("beta-long-name", 1.25)
	out := tbl.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta-long-name") {
		t.Errorf("table output missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + separator + 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("separator missing:\n%s", out)
	}
	if !strings.Contains(out, "1.25") {
		t.Errorf("float formatting broken:\n%s", out)
	}
}
