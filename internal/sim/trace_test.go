package sim

import (
	"errors"
	"strings"
	"testing"

	"riseandshine/internal/graph"
)

func TestTraceOutput(t *testing.T) {
	var buf strings.Builder
	_, err := RunAsync(Config{
		Setup:    setupOf(graph.Path(3), Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule: WakeSingle(0),
		Observer: NewTraceObserver(&buf),
	}, broadcastOnWake{})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "time,kind,node,port,sender_port,from,bits,payload" {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.Contains(out, "wake-adversary,0") {
		t.Errorf("missing adversary wake event:\n%s", out)
	}
	if !strings.Contains(out, "deliver,1") {
		t.Errorf("missing delivery to node 1:\n%s", out)
	}
	// 3 wakes + deliveries: node 0 broadcasts 1 msg, nodes 1,2 broadcast
	// on wake: total messages = 2*m = 4; events = 3 wakes + 4 deliveries.
	if got := len(lines) - 1; got != 7 {
		t.Errorf("trace has %d events, want 7:\n%s", got, out)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestTraceWriterErrorSurfaces(t *testing.T) {
	_, err := RunAsync(Config{
		Setup:    setupOf(graph.Path(2), Model{Knowledge: KT0, Bandwidth: Local}),
		Schedule: WakeSingle(0),
		Observer: NewTraceObserver(failingWriter{}),
	}, broadcastOnWake{})
	if err == nil || !strings.Contains(err.Error(), "trace writer") {
		t.Fatalf("expected trace-writer error, got %v", err)
	}
}
