package sim

import (
	"strings"
	"testing"

	"riseandshine/internal/graph"
)

// TestTinyDelayTakesPositiveTime: a delay below half an ulp of the send
// time used to round away, so a message arrived at its send time. Flooding
// Path(6) from node 0 with the first hop slowed to τ and every other delay
// at 1e-17 put nine of the ten deliveries at their send times and woke
// nodes 1–5 together at time 1. Every delivery must take positive time,
// so wake times rise strictly along the path, sequentially and sharded.
func TestTinyDelayTakesPositiveTime(t *testing.T) {
	g := graph.Path(6)
	model := Model{Knowledge: KT0, Bandwidth: Local}
	for _, shards := range []int{0, 2} {
		res, err := RunAsync(Config{
			Setup:    setupOf(g, model),
			Schedule: WakeSingle(0),
			Delays:   BiasedDelay{Slow: map[[2]int]bool{{0, 1}: true}, Fast: 1e-17},
			Shards:   shards,
			Observer: NewModelCheck(g, nil, model),
		}, broadcastOnWake{})
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		for v := 1; v < g.N(); v++ {
			if !(res.WakeAt[v] > res.WakeAt[v-1]) {
				t.Fatalf("shards %d: WakeAt = %v, want strictly rising along the path", shards, res.WakeAt)
			}
		}
	}
}

// TestModelCheckViolations feeds the checker hand-made event streams, each
// breaking one rule of the model, on Path(3) with identity ports.
func TestModelCheckViolations(t *testing.T) {
	g := graph.Path(3) // 0 —1— 1 —2— 2; node 1's port 1 leads to 0, port 2 to 2
	msg := testMsg{Seq: 1, bits: 4}
	sendWoken := func(o *ModelCheck) {
		o.OnWake(0, 0, true)
		o.OnSend(0, 0, 1, msg)
	}
	hop := Delivery{Msg: msg, Port: 1, SenderPort: 1, From: -1}
	cases := []struct {
		name  string
		model Model
		feed  func(o *ModelCheck)
		res   Result
		want  string
	}{
		{"time goes back", Model{}, func(o *ModelCheck) {
			o.OnWake(1, 0, true)
			o.OnWake(0.5, 1, true)
		}, Result{}, "time went back"},
		{"second wake", Model{}, func(o *ModelCheck) {
			o.OnWake(0, 0, true)
			o.OnWake(1, 0, false)
		}, Result{}, "woke twice"},
		{"sleeping sender", Model{}, func(o *ModelCheck) {
			o.OnSend(0, 0, 1, msg)
		}, Result{}, "sleeping node 0"},
		{"invalid port", Model{}, func(o *ModelCheck) {
			o.OnWake(0, 0, true)
			o.OnSend(0, 0, 2, msg)
		}, Result{}, "invalid port 2"},
		{"port wraps", Model{}, func(o *ModelCheck) {
			o.OnWake(0, 0, true)
			o.OnSend(0, 0, 1<<32+1, msg)
		}, Result{}, "invalid port"},
		{"congest limit", Model{Bandwidth: Congest, CongestBits: 3}, sendWoken, Result{}, "CONGEST limit of 3"},
		{"sleeping receiver", Model{}, func(o *ModelCheck) {
			sendWoken(o)
			o.OnDeliver(0.5, 1, hop)
		}, Result{}, "not awake"},
		{"wake before its message", Model{}, func(o *ModelCheck) {
			sendWoken(o)
			o.OnWake(0.25, 1, false)
			o.OnDeliver(0.5, 1, hop)
		}, Result{}, "woke at 0.25"},
		{"wrong sender port", Model{}, func(o *ModelCheck) {
			sendWoken(o)
			o.OnWake(0.5, 1, false)
			o.OnDeliver(0.5, 1, Delivery{Msg: msg, Port: 1, SenderPort: 2, From: -1})
		}, Result{}, "does not match the port map"},
		{"KT0 leaks the sender ID", Model{Knowledge: KT0}, func(o *ModelCheck) {
			sendWoken(o)
			o.OnWake(0.5, 1, false)
			o.OnDeliver(0.5, 1, Delivery{Msg: msg, Port: 1, SenderPort: 1, From: 0})
		}, Result{}, "sender ID 0 under KT0"},
		{"KT1 hides the sender ID", Model{Knowledge: KT1}, func(o *ModelCheck) {
			sendWoken(o)
			o.OnWake(0.5, 1, false)
			o.OnDeliver(0.5, 1, hop)
		}, Result{}, "sender ID -1 under KT1"},
		{"delivery without a send", Model{}, func(o *ModelCheck) {
			o.OnWake(0, 0, true)
			o.OnWake(0, 1, true)
			o.OnDeliver(0.5, 1, hop)
		}, Result{}, "without a send in flight"},
		{"FIFO overtaken", Model{}, func(o *ModelCheck) {
			sendWoken(o)
			o.OnSend(0, 0, 1, testMsg{Seq: 2, bits: 4})
			o.OnWake(0.5, 1, false)
			o.OnDeliver(0.5, 1, Delivery{Msg: testMsg{Seq: 2, bits: 4}, Port: 1, SenderPort: 1, From: -1})
		}, Result{}, "(FIFO)"},
		{"zero delay", Model{}, func(o *ModelCheck) {
			sendWoken(o)
			o.OnWake(0, 1, false)
			o.OnDeliver(0, 1, hop)
		}, Result{}, "outside (0, τ]"},
		{"delay above τ", Model{}, func(o *ModelCheck) {
			sendWoken(o)
			o.OnWake(1.5, 1, false)
			o.OnDeliver(1.5, 1, hop)
		}, Result{}, "outside (0, τ]"},
		{"message left in flight", Model{}, sendWoken,
			Result{Messages: 1, AwakeCount: 1, SentBy: []int{1, 0, 0}, ReceivedBy: []int{0, 0, 0}}, "still in flight"},
		{"Result miscounts", Model{}, func(o *ModelCheck) {
			sendWoken(o)
			o.OnWake(0.5, 1, false)
			o.OnDeliver(0.5, 1, hop)
		}, Result{Messages: 1, AwakeCount: 2, SentBy: []int{1, 0, 0}, ReceivedBy: []int{0, 0, 0}}, "node 1 sent 0 and received 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := NewModelCheck(g, nil, tc.model)
			tc.feed(o)
			err := o.OnFinish(&tc.res)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "modelcheck: ") {
				t.Fatalf("got %v, want a modelcheck error containing %q", err, tc.want)
			}
		})
	}
}

// TestEdgeFIFOReadsPortTables pins that the edge bookkeeping of ModelCheck
// and CausalObserver reads the port map's offset and port tables in place:
// building it allocates its two per-edge arrays and nothing else, no
// reverse-port table.
func TestEdgeFIFOReadsPortTables(t *testing.T) {
	g := graph.BinaryTree(1000)
	pm := graph.IdentityPorts(g)
	start, to := pm.CSR()
	f := newEdgeFIFO[int32](pm)
	if &f.start[0] != &start[0] || &f.to[0] != &to[0] {
		t.Error("edgeFIFO copies the port map's tables")
	}
	if allocs := testing.AllocsPerRun(5, func() { newEdgeFIFO[int32](pm) }); allocs != 2 {
		t.Errorf("newEdgeFIFO allocates %v times, want 2 (queue and head)", allocs)
	}
}
