package metrics

import (
	"math"

	"riseandshine/internal/sim"
)

// Metric names. One run = one Observer; a sweep merges per-run snapshots
// into one live Snapshot under the same names, beside its own run counter.
const (
	MetricWakesAdversarial = "sim_wakes_adversarial_total"
	MetricWakesMessage     = "sim_wakes_message_total"
	MetricSends            = "sim_sends_total"
	MetricDeliveries       = "sim_deliveries_total"
	MetricMessageBits      = "sim_message_bits_total"
	MetricSendBits         = "sim_send_bits"
	MetricWakeTime         = "sim_wake_time"
	MetricDeliveryTime     = "sim_delivery_time"
	MetricAwakeFraction    = "sim_awake_fraction"
	MetricInFlight         = "sim_inflight_messages"
	MetricSweepRuns        = "sweep_runs_completed_total"
)

// help is the Prometheus HELP text of every metric name above.
var help = map[string]string{
	MetricWakesAdversarial: "nodes woken directly by the adversary",
	MetricWakesMessage:     "nodes woken by receiving a message",
	MetricSends:            "messages sent",
	MetricDeliveries:       "messages delivered",
	MetricMessageBits:      "total payload volume in bits",
	MetricSendBits:         "per-message payload size in bits",
	MetricWakeTime:         "engine time of each wake-up",
	MetricDeliveryTime:     "engine time of each delivery",
	MetricAwakeFraction:    "fraction of nodes awake",
	MetricInFlight:         "messages sent but not yet delivered",
	MetricSweepRuns:        "runs finished so far",
}

// FrontierPoint is one sample of the wake-up frontier: how much of the
// network is awake and how many messages are in flight at engine time At.
type FrontierPoint struct {
	At        sim.Time `json:"at"`
	AwakeFrac float64  `json:"awake_frac"`
	InFlight  int      `json:"in_flight"`
}

// Observer records an engine's event stream: event counters, log-bucketed
// histograms of message sizes and event times, and a frontier time series
// sampled once per unit of engine time (one τ, or one round under the
// synchronous engine). The per-event cost is a few integer adds; the
// frontier appends amortize (see BenchmarkRunAsyncMetrics).
//
// Like every sim.Observer, it holds the state of one run and relies on the
// engine serializing calls: build a fresh one for every run.
type Observer struct {
	n int

	wakesAdv, wakesMsg, bits          uint64
	sendBits, wakeTimes, deliverTimes Histogram // their counts are the send and delivery counters

	awake    int
	inflight int
	lastAt   sim.Time
	haveCell bool
	lastCell int64
	frontier []FrontierPoint
}

// NewObserver returns an observer for one run on an n-node network.
func NewObserver(n int) *Observer { return &Observer{n: n} }

// Snapshot returns the run's metrics: the event counters, the awake
// fraction and in-flight count as gauges, and the three histograms, each
// list in name order as Merge and the deterministic JSON records expect.
func (o *Observer) Snapshot() Snapshot {
	return Snapshot{
		Counters: []CounterSnapshot{
			{MetricDeliveries, o.deliverTimes.count},
			{MetricMessageBits, o.bits},
			{MetricSends, o.sendBits.count},
			{MetricWakesAdversarial, o.wakesAdv},
			{MetricWakesMessage, o.wakesMsg},
		},
		Gauges: []GaugeSnapshot{
			{MetricAwakeFraction, o.point(o.lastAt).AwakeFrac},
			{MetricInFlight, float64(o.inflight)},
		},
		Histograms: []HistogramSnapshot{
			o.deliverTimes.Snapshot(MetricDeliveryTime),
			o.sendBits.Snapshot(MetricSendBits),
			o.wakeTimes.Snapshot(MetricWakeTime),
		},
	}
}

// sample appends a frontier point when engine time has crossed into a new
// unit cell (or when force is set, for wake events).
func (o *Observer) sample(at sim.Time, force bool) {
	o.lastAt = at
	cell := int64(math.Floor(float64(at)))
	if o.haveCell && cell <= o.lastCell && !force {
		return
	}
	if o.haveCell && cell <= o.lastCell && force {
		// A wake inside an already-sampled cell updates the cell's point in
		// place, so the frontier records the awake fraction at the end of
		// each cell instead of growing per event.
		o.frontier[len(o.frontier)-1] = o.point(at)
		return
	}
	o.haveCell = true
	o.lastCell = cell
	o.frontier = append(o.frontier, o.point(at))
}

func (o *Observer) point(at sim.Time) FrontierPoint {
	frac := 0.0
	if o.n > 0 {
		frac = float64(o.awake) / float64(o.n)
	}
	return FrontierPoint{At: at, AwakeFrac: frac, InFlight: o.inflight}
}

// Frontier returns the sampled time series: at most one point per unit
// cell that contained an event, each recording the state after the cell's
// last observed wake (or first event for wake-free cells), plus a final
// point appended at OnFinish.
func (o *Observer) Frontier() []FrontierPoint { return o.frontier }

// OnWake implements sim.Observer.
func (o *Observer) OnWake(at sim.Time, node int, adversarial bool) {
	if adversarial {
		o.wakesAdv++
	} else {
		o.wakesMsg++
	}
	o.wakeTimes.Observe(float64(at))
	o.awake++
	o.sample(at, true)
}

// OnDeliver implements sim.Observer.
func (o *Observer) OnDeliver(at sim.Time, node int, d sim.Delivery) {
	o.deliverTimes.Observe(float64(at))
	o.inflight--
	o.sample(at, false)
}

// OnSend implements sim.Observer.
func (o *Observer) OnSend(at sim.Time, from, port int, m sim.Message) {
	bits := m.Bits()
	o.bits += uint64(bits)
	o.sendBits.Observe(float64(bits))
	o.inflight++
	o.sample(at, false)
}

// OnFinish implements sim.Observer: it closes the frontier with a final
// point at the last event time.
func (o *Observer) OnFinish(*sim.Result) error {
	if o.haveCell {
		last := o.point(o.lastAt)
		if o.frontier[len(o.frontier)-1] != last {
			o.frontier = append(o.frontier, last)
		}
	}
	return nil
}

var _ sim.Observer = (*Observer)(nil)
