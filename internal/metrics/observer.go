package metrics

import (
	"math"

	"riseandshine/internal/sim"
)

// Metric names recorded by Observer. One run = one Observer on one
// Registry; a sweep merges per-run snapshots into a shared live registry
// under the same names.
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
)

// FrontierPoint is one sample of the wake-up frontier: how much of the
// network is awake and how many messages are in flight at engine time At.
type FrontierPoint struct {
	At        sim.Time `json:"at"`
	AwakeFrac float64  `json:"awake_frac"`
	InFlight  int      `json:"in_flight"`
}

// Observer records an engine's event stream into a Registry: event
// counters, log-bucketed histograms of message sizes and event times, and
// a frontier time series sampled once per unit of engine time (one τ, or
// one round under the synchronous engine). The per-event cost is a few
// atomic adds; the frontier appends amortize, so stacking an Observer
// keeps a run within a small constant factor of the unobserved hot path
// (see BenchmarkRunAsyncMetrics).
//
// Like every sim.Observer, it holds the state of one run and relies on the
// engine serializing calls: build a fresh one for every run. Registries,
// in contrast, are safe to share.
type Observer struct {
	n int

	wakesAdv, wakesMsg, sends, deliveries, bits *Counter
	sendBits, wakeTimes, deliverTimes           *Histogram
	awakeFrac, inFlight                         *Gauge

	awake    int
	inflight int
	lastAt   sim.Time
	haveCell bool
	lastCell int64
	frontier []FrontierPoint
}

// NewObserver registers the sim_* metrics on reg and returns an observer
// for one run on an n-node network.
func NewObserver(reg *Registry, n int) *Observer {
	return &Observer{
		n:            n,
		wakesAdv:     reg.NewCounter(MetricWakesAdversarial, "nodes woken directly by the adversary"),
		wakesMsg:     reg.NewCounter(MetricWakesMessage, "nodes woken by receiving a message"),
		sends:        reg.NewCounter(MetricSends, "messages sent"),
		deliveries:   reg.NewCounter(MetricDeliveries, "messages delivered"),
		bits:         reg.NewCounter(MetricMessageBits, "total payload volume in bits"),
		sendBits:     reg.NewHistogram(MetricSendBits, "per-message payload size in bits"),
		wakeTimes:    reg.NewHistogram(MetricWakeTime, "engine time of each wake-up"),
		deliverTimes: reg.NewHistogram(MetricDeliveryTime, "engine time of each delivery"),
		awakeFrac:    reg.NewGauge(MetricAwakeFraction, "fraction of nodes awake"),
		inFlight:     reg.NewGauge(MetricInFlight, "messages sent but not yet delivered"),
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
		o.wakesAdv.Inc()
	} else {
		o.wakesMsg.Inc()
	}
	o.wakeTimes.Observe(float64(at))
	o.awake++
	o.awakeFrac.Set(o.point(at).AwakeFrac)
	o.sample(at, true)
}

// OnDeliver implements sim.Observer.
func (o *Observer) OnDeliver(at sim.Time, node int, d sim.Delivery) {
	o.deliveries.Inc()
	o.deliverTimes.Observe(float64(at))
	o.inflight--
	o.inFlight.Add(-1)
	o.sample(at, false)
}

// OnSend implements sim.Observer.
func (o *Observer) OnSend(at sim.Time, from, port int, m sim.Message) {
	bits := m.Bits()
	o.sends.Inc()
	o.bits.Add(uint64(bits))
	o.sendBits.Observe(float64(bits))
	o.inflight++
	o.inFlight.Add(1)
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
