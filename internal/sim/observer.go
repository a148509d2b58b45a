package sim

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// Observer receives the engine's event stream. The engine threads one
// optional Observer through its hot paths behind a nil check, so an
// unobserved run pays a single comparison per event and zero allocations.
//
// A config's Observer field is the only way an observer enters a run;
// StackObservers fits several into that one slot. An observer holds the
// state of one run — a transcript, a trace writer, a frontier — and
// nothing resets it, so build a fresh one for every run: one observer
// passed to two runs, even one after the other, folds them together.
//
// Times are engine times: simulated time in an asynchronous run and the
// round number in a synchronous one. Calls come from one
// goroutine at a time, even in a sharded run, so an Observer need not be
// safe for concurrent use. OnDeliver is always invoked before the
// receiving machine's handler runs, so the payload is observed exactly as
// delivered. ModelCheck checks a stream against the paper's model.
type Observer interface {
	// OnWake is called when a node wakes (at most once per node);
	// adversarial reports a direct adversarial wake-up.
	OnWake(at Time, node int, adversarial bool)
	// OnDeliver is called for every message delivery, before the
	// receiving machine's handler.
	OnDeliver(at Time, node int, d Delivery)
	// OnSend is called for every message send.
	OnSend(at Time, from, port int, m Message)
	// OnFinish is called exactly once, after the run has quiesced and
	// the metrics are final. Observers may decorate res (the digest
	// observer publishes Result.TranscriptDigests here) and surface
	// deferred I/O errors, which the engine returns to its caller.
	OnFinish(res *Result) error
}

// StackObservers composes observers into one that fans every event out in
// argument order. Nil entries are dropped; stacking zero observers yields
// nil (the unobserved hot path), and stacking one returns it unwrapped.
func StackObservers(obs ...Observer) Observer {
	var live multiObserver
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}

type multiObserver []Observer

func (m multiObserver) OnWake(at Time, node int, adversarial bool) {
	for _, o := range m {
		o.OnWake(at, node, adversarial)
	}
}

func (m multiObserver) OnDeliver(at Time, node int, d Delivery) {
	for _, o := range m {
		o.OnDeliver(at, node, d)
	}
}

func (m multiObserver) OnSend(at Time, from, port int, msg Message) {
	for _, o := range m {
		o.OnSend(at, from, port, msg)
	}
}

func (m multiObserver) OnFinish(res *Result) error {
	var errs []error
	for _, o := range m {
		if err := o.OnFinish(res); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// TraceObserver writes the CSV event trace. The stream starts with a
// header line; each subsequent line is
//
//	time,kind,node,port,sender_port,from,bits,payload
//
// where kind is "wake", "wake-adversary" or "deliver". Payload is the
// Go-syntax rendering of the message (quoted); wake events leave the
// message fields empty. Tracing is intended for debugging and for feeding
// external visualization; it does not affect the execution. Write errors
// are sticky and surface from OnFinish, so a full disk fails the run
// instead of silently truncating the trace.
type TraceObserver struct {
	w     io.Writer
	err   error
	wrote bool // header written
}

// NewTraceObserver returns a trace observer writing to w.
func NewTraceObserver(w io.Writer) *TraceObserver {
	return &TraceObserver{w: w}
}

// write appends one event line, after the header on the first call, and
// does nothing once a write has failed.
func (o *TraceObserver) write(format string, args ...any) {
	if o.err != nil {
		return
	}
	if !o.wrote {
		o.wrote = true
		if _, o.err = io.WriteString(o.w, "time,kind,node,port,sender_port,from,bits,payload\n"); o.err != nil {
			return
		}
	}
	_, o.err = fmt.Fprintf(o.w, format, args...)
}

// OnWake implements Observer.
func (o *TraceObserver) OnWake(at Time, node int, adversarial bool) {
	kind := "wake"
	if adversarial {
		kind = "wake-adversary"
	}
	o.write("%g,%s,%d,,,,,\n", float64(at), kind, node)
}

// OnDeliver implements Observer.
func (o *TraceObserver) OnDeliver(at Time, node int, d Delivery) {
	o.write("%g,deliver,%d,%d,%d,%d,%d,%q\n",
		float64(at), node, d.Port, d.SenderPort, d.From, d.Msg.Bits(), fmt.Sprintf("%#v", d.Msg))
}

// OnSend implements Observer. Sends are not traced: the CSV format
// records the delivery side, which carries the same payload plus the
// receiver's port view.
func (o *TraceObserver) OnSend(Time, int, int, Message) {}

// OnFinish implements Observer, reporting the first write error.
func (o *TraceObserver) OnFinish(*Result) error {
	if o.err != nil {
		return fmt.Errorf("trace writer: %w", o.err)
	}
	return nil
}

// DigestObserver folds every delivery into per-node transcript digests:
// an order-sensitive FNV-1a hash of each delivery a node receives (time,
// ports, sender, payload). Two executions are observationally identical at
// a node iff the digests match — the executable form of the
// indistinguishability arguments in Lemmas 5 and 6. OnFinish publishes the
// digests as Result.TranscriptDigests.
//
// With perDelivery enabled the observer additionally keeps each delivery's
// individual time-free digest. Those sets compare executions across delay
// adversaries — times differ between the runs, but the multiset of
// deliveries a node receives does not whenever algorithm behavior is
// schedule-independent.
type DigestObserver struct {
	transcripts []uint64
	perDelivery bool
	deliveries  [][]uint64
}

// NewDigestObserver returns a digest observer; perDelivery selects the
// additional per-delivery time-free digest sets.
func NewDigestObserver(perDelivery bool) *DigestObserver {
	return &DigestObserver{perDelivery: perDelivery}
}

// ensure grows the per-node state to cover node v, in one step — growing
// element-by-element re-checks capacity per append and turns a large first
// event index into quadratic copying.
func (o *DigestObserver) ensure(v int) {
	if old := len(o.transcripts); v >= old {
		o.transcripts = append(o.transcripts, make([]uint64, v+1-old)...)
		for i := old; i <= v; i++ {
			o.transcripts[i] = fnvOffset
		}
	}
	if o.perDelivery && v >= len(o.deliveries) {
		o.deliveries = append(o.deliveries, make([][]uint64, v+1-len(o.deliveries))...)
	}
}

// OnWake implements Observer.
func (o *DigestObserver) OnWake(Time, int, bool) {}

// OnDeliver implements Observer.
func (o *DigestObserver) OnDeliver(at Time, node int, d Delivery) {
	o.ensure(node)
	o.transcripts[node] = digestDelivery(o.transcripts[node], at, d)
	if o.perDelivery {
		o.deliveries[node] = append(o.deliveries[node], digestDeliveryContent(d))
	}
}

// OnSend implements Observer.
func (o *DigestObserver) OnSend(Time, int, int, Message) {}

// OnFinish implements Observer: it publishes the transcript digests into
// Result.TranscriptDigests, sized to the network (nodes that received
// nothing carry the FNV offset basis).
func (o *DigestObserver) OnFinish(res *Result) error {
	res.TranscriptDigests = o.Transcripts(res.N)
	return nil
}

// Transcripts returns the order-sensitive per-node transcript digests,
// padded to n nodes.
func (o *DigestObserver) Transcripts(n int) []uint64 {
	out := make([]uint64, n)
	for v := range out {
		if v < len(o.transcripts) {
			out[v] = o.transcripts[v]
		} else {
			out[v] = fnvOffset
		}
	}
	return out
}

// DeliveryDigests returns the sorted time-free digests of the individual
// deliveries node v received (nil without perDelivery or deliveries).
// Sorting makes the set order-insensitive: two executions delivering the
// same messages to v in any order compare equal.
func (o *DigestObserver) DeliveryDigests(v int) []uint64 {
	if !o.perDelivery || v >= len(o.deliveries) {
		return nil
	}
	out := append([]uint64(nil), o.deliveries[v]...)
	slices.Sort(out)
	return out
}
