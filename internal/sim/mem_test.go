package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"riseandshine/internal/graph"
)

func memConfig(report bool) Config {
	return Config{
		Graph:     graph.BinaryTree(127),
		Model:     Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0}}, Delays: RandomDelay{Seed: 2}},
		Seed:      1,
		MemReport: report,
	}
}

// TestMemReportPopulated checks the report's basic accounting contract:
// every subsystem that the run touches reports a positive figure, the
// total is the sum, and only the cores of the reported run count — a
// sequential run on an engine that last ran four shards reports one queue
// and no outbox.
func TestMemReportPopulated(t *testing.T) {
	eng := &Engine{}
	warm := memConfig(false)
	warm.Adversary.Delays = RandomDelay{Seed: 2, Min: 0.25}
	warm.Shards = 4
	if _, err := eng.Run(warm, floodAlg{}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(memConfig(true), floodAlg{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mem
	if m == nil {
		t.Fatal("MemReport requested but Result.Mem is nil")
	}
	if m.QueueBytes <= 0 || m.FIFOBytes <= 0 || m.RNGBytes <= 0 || m.CSRBytes <= 0 || m.NodeBytes <= 0 {
		t.Errorf("subsystem bytes not all positive: %+v", m)
	}
	if sum := m.QueueBytes + m.FIFOBytes + m.RNGBytes + m.CSRBytes + m.NodeBytes; m.TotalBytes != sum {
		t.Errorf("TotalBytes %d != subsystem sum %d", m.TotalBytes, sum)
	}
	if m.Shards != 0 || m.OutboxBytes != 0 {
		t.Errorf("sequential run reports shards=%d outbox=%d, want 0 and 0", m.Shards, m.OutboxBytes)
	}
	if q := eng.cores[0].queue.memBytes(); m.QueueBytes != q {
		t.Errorf("QueueBytes %d, want the sequential core's queue alone (%d)", m.QueueBytes, q)
	}
	if s := m.String(); !strings.Contains(s, "total=") {
		t.Errorf("String() = %q missing the total", s)
	}
}

// TestMemReportCSRBytes pins CSRBytes to what the Setup holds: 4 bytes
// per node (plus one) of EdgeStart and 8 per directed edge of EdgeTo and
// RevPort, plus 8 per directed edge of neighbour IDs under KT1. No
// per-node NodeInfo or sender-ID table is counted, because none exists.
func TestMemReportCSRBytes(t *testing.T) {
	for _, c := range []struct {
		kt      Knowledge
		perEdge int64
	}{{KT0, 8}, {KT1, 16}} {
		cfg := memConfig(true)
		cfg.Model.Knowledge = c.kt
		res, err := RunAsync(cfg, floodAlg{})
		if err != nil {
			t.Fatal(err)
		}
		n, dir := int64(cfg.Graph.N()), 2*int64(cfg.Graph.M())
		if want := 4*(n+1) + c.perEdge*dir; res.Mem.CSRBytes != want {
			t.Errorf("%v: CSRBytes %d, want 4·(n+1) + %d·2m = %d", c.kt, res.Mem.CSRBytes, c.perEdge, want)
		}
	}
}

// TestMemReportSync: synchronous runs honour MemReport too, and their
// report counts the round scratch — the machine table and inbox offsets
// beside the node records, the round's arrivals and grouped inbox beside
// the event queue.
func TestMemReportSync(t *testing.T) {
	eng := &Engine{}
	res, err := eng.RunSync(memConfig(true), syncFloodAlg{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mem
	if m == nil {
		t.Fatal("MemReport requested but Result.Mem is nil")
	}
	if sum := m.QueueBytes + m.FIFOBytes + m.RNGBytes + m.CSRBytes + m.NodeBytes; m.TotalBytes != sum {
		t.Errorf("TotalBytes %d != subsystem sum %d", m.TotalBytes, sum)
	}
	if records := int64(cap(eng.run.nodes)) * nodeSlotBytes; m.NodeBytes <= records {
		t.Errorf("NodeBytes %d does not count the machine table beyond the %d bytes of node records", m.NodeBytes, records)
	}
	if q := eng.cores[0].queue.memBytes(); m.QueueBytes <= q {
		t.Errorf("QueueBytes %d does not count the round buffers beyond the %d-byte queue", m.QueueBytes, q)
	}
}

// TestMemReportOffByDefault pins that the report stays nil unless asked
// for, and that the JSON encoding omits it — Results from mem-reporting
// and plain runs must stay byte-comparable on every other field.
func TestMemReportOffByDefault(t *testing.T) {
	res, err := RunAsync(memConfig(false), floodAlg{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem != nil {
		t.Fatalf("MemReport not requested but Result.Mem = %+v", res.Mem)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Mem") {
		t.Fatalf("JSON encoding of a plain Result mentions Mem: %s", b)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{2048, "2.0KiB"},
		{5 << 20, "5.00MiB"},
		{3 << 30, "3.00GiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
