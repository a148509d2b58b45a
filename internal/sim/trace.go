package sim

import (
	"fmt"
	"io"
)

// Tracer is the CSV backend of TraceObserver (installed through the
// Observer slot of a run's config). The stream starts with a header line;
// each subsequent line is
//
//	time,kind,node,port,sender_port,from,bits,payload
//
// where kind is "wake" or "deliver". Payload is the Go-syntax rendering
// of the message (quoted); wake events leave the message fields empty.
// Tracing is intended for debugging and for feeding external
// visualization; it does not affect the execution.
type tracer struct {
	w      io.Writer
	err    error
	wrote  bool
	events int
}

func (t *tracer) header() {
	if t == nil || t.wrote || t.err != nil {
		return
	}
	t.wrote = true
	_, t.err = io.WriteString(t.w, "time,kind,node,port,sender_port,from,bits,payload\n")
}

func (t *tracer) wake(at Time, node int, adversarial bool) {
	if t == nil || t.err != nil {
		return
	}
	t.header()
	kind := "wake"
	if adversarial {
		kind = "wake-adversary"
	}
	_, t.err = fmt.Fprintf(t.w, "%g,%s,%d,,,,,\n", float64(at), kind, node)
	t.events++
}

func (t *tracer) deliver(at Time, node int, d Delivery) {
	if t == nil || t.err != nil {
		return
	}
	t.header()
	_, t.err = fmt.Fprintf(t.w, "%g,deliver,%d,%d,%d,%d,%d,%q\n",
		float64(at), node, d.Port, d.SenderPort, d.From, d.Msg.Bits(), fmt.Sprintf("%#v", d.Msg))
	t.events++
}

// Err reports the first write error encountered, if any.
func (t *tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}
