package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// DefaultMaxRounds caps synchronous executions unless overridden.
const DefaultMaxRounds = 1_000_000

// RunSync executes alg in lock-step rounds until the network is quiescent.
// It runs on a fresh engine; use an explicit Engine to reuse scratch state
// across runs.
func RunSync(cfg Config, alg SyncAlgorithm) (*Result, error) {
	return new(Engine).RunSync(cfg, alg)
}

// RunSync executes alg in lock-step rounds on the sequential core until
// the network is quiescent: no message in flight, no adversarial wake
// pending, and every awake machine quiescent (a machine that does not
// implement Quiescer always is). The synchronous model is the asynchronous
// one with every delay fixed at one round, so wake times are truncated to
// rounds, a message sent in round r is queued at r + 1, and Result.Events
// counts rounds. cfg.Delays and cfg.Shards do not apply;
// cfg.MaxEvents bounds the rounds after the first wake (DefaultMaxRounds
// when unset).
//
// A round runs the adversary's wakes in node order, then each receiver in
// node order wakes if asleep and is credited its messages in send order,
// then every awake node's OnRound runs in node order with its inbox.
func (e *Engine) RunSync(cfg Config, alg SyncAlgorithm) (*Result, error) {
	var t0 int64
	if cfg.Tracer != nil {
		t0 = cfg.Tracer.ExecNow()
	}
	s, wakeups, err := setupForRun(cfg, alg)
	if err != nil {
		return nil, err
	}
	r := &e.run
	r.alg, r.syncAlg = nil, alg
	r.start(s, UnitDelay{}, cfg.Seed, nil)
	n := s.Graph.N()
	r.machines = growClear(r.machines, n)
	r.inboxEnd = growClear(r.inboxEnd, n)
	c := e.sequentialCore(cfg)

	// Wakes enter the queue before any message, sorted by (round, node), so
	// each round's wakes pop first and in node order. The sort works on a
	// copy: the scheduler's own slice stays as it was.
	r.wakes = append(r.wakes[:0], wakeups...)
	for i := range r.wakes {
		r.wakes[i].At = Time(int64(r.wakes[i].At))
	}
	slices.SortStableFunc(r.wakes, func(a, b Wakeup) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Node, b.Node))
	})
	for _, w := range r.wakes {
		c.push(event{at: w.At, kind: evWake, node: w.Node})
	}
	first := int(r.wakes[0].At)
	maxRounds := maxEventsFor(cfg, DefaultMaxRounds)

	t1 := execPhase(cfg.Tracer, ExecSetup, t0, 0)
	lastActive := first
	for round := first; ; round++ {
		if round-first > maxRounds {
			return nil, fmt.Errorf("sim: round limit %d exceeded (algorithm %q may not terminate)", maxRounds, alg.Name())
		}
		if Time(round) >= maxWake {
			return nil, fmt.Errorf("sim: round %d is at or above the engine's limit %v", round, maxWake)
		}
		c.now, c.round = Time(round), round
		woken, seq := c.woken, c.seq
		c.popRound(round)
		c.deliverRound()
		lo := int32(0)
		for v, m := range r.machines[:n] {
			hi := r.inboxEnd[v]
			if m != nil && c.err == nil {
				var in []Delivery
				if hi > lo {
					in = r.inbox[lo:hi:hi]
				}
				c.ctx.node = v
				m.OnRound(&c.ctx, in)
			}
			lo = hi
		}
		if c.err != nil {
			return nil, c.err
		}
		c.events++
		if c.woken != woken || len(r.arrivals) > 0 || c.seq != seq {
			lastActive = round
		}
		if c.queue.live == 0 && r.allQuiescent() {
			break
		}
	}

	t2 := execPhase(cfg.Tracer, ExecRun, t1, c.events)
	res := r.result(alg.Name(), e.cores[:1], Time(lastActive), Time(first), cfg.TrackPorts)
	res.Rounds = lastActive - first
	return e.finishRun(cfg, res, 1, t2)
}

// popRound takes the round's events off the queue, running each wake as it
// pops and collecting the deliveries into run.arrivals in send order.
func (c *engineCore) popRound(round int) {
	r := c.run
	r.arrivals = slices.Grow(r.arrivals[:0], c.queue.live) // at most every queued event pops
	for c.err == nil {
		ev, _, ok := c.queue.popBefore(Time(round + 1))
		if !ok {
			return
		}
		if ev.kind == evWake {
			c.wake(ev.node, true)
		} else {
			r.arrivals = append(r.arrivals, ev)
		}
	}
}

// deliverRound groups the round's arrivals by receiver with a stable
// counting sort into run.inbox, where node v's messages end at inboxEnd[v]
// and start where node v-1's end. Then each receiver, in node order, wakes
// if asleep and has its messages passed to the observer.
func (c *engineCore) deliverRound() {
	r := c.run
	end := r.inboxEnd
	clear(end)
	for i := range r.arrivals {
		end[r.arrivals[i].node]++
	}
	var sum int32
	for v, k := range end {
		end[v] = sum
		sum += k
	}
	r.inbox = slices.Grow(r.inbox[:0], len(r.arrivals))[:len(r.arrivals)]
	for i := range r.arrivals {
		ev := &r.arrivals[i]
		r.inbox[end[ev.node]] = ev.d
		end[ev.node]++
	}

	lo := int32(0)
	for v, hi := range end {
		if hi == lo || c.err != nil {
			continue
		}
		c.wake(v, false)
		if c.obs != nil {
			for _, d := range r.inbox[lo:hi] {
				c.obs.OnDeliver(c.now, v, d)
			}
		}
		lo = hi
	}
}

// allQuiescent reports whether every awake machine of a synchronous run
// is quiescent.
func (r *runShared) allQuiescent() bool {
	for _, m := range r.machines {
		if q, ok := m.(Quiescer); ok && !q.Quiescent() {
			return false
		}
	}
	return true
}
