package sim

import (
	"math"
	"sync"
)

// infTime is the +∞ time sentinel: an engineCore reports nextAt = infTime
// when its queue drained inside the window, and the coordinator terminates
// when every pending-time source reports it.
var infTime = Time(math.Inf(1))

// shardCmd dispatches one window to a core's worker goroutine. The channel
// send is the happens-before edge that publishes the coordinator's barrier
// work (the inbox, the truncated outbox) to the worker.
type shardCmd struct {
	inbox     []event
	windowEnd Time
	budget    int
	win       int64 // window index, for execution-trace spans only
}

// shardPlan returns the partition and window width of a sharded run, or a
// nil partition when the run stays sequential: Shards ≤ 1, a Delayer
// without a positive Lookahead (no conservative window exists), or a
// partition that collapses to one shard.
func (e *Engine) shardPlan(shards int, s *Setup, delays Delayer) (*Partition, Time) {
	if shards <= 1 {
		return nil, 0
	}
	w := 0.0
	if lh, ok := delays.(Lookahead); ok {
		w = lh.Lookahead()
	}
	if w > 1 {
		w = 1 // delays never exceed τ = 1; a wider promise is meaningless
	}
	if !(w > 0) { // zero, negative, or NaN
		return nil, 0
	}
	part := e.partition(s, shards)
	if part.P <= 1 {
		return nil, 0
	}
	return part, Time(w)
}

// partition returns the cached Partition for (topology, p), computing it on
// first use.
func (e *Engine) partition(s *Setup, p int) *Partition {
	n := s.Graph.N()
	key := &s.EdgeStart[0]
	if e.part == nil || e.partKey != key || e.partN != n || e.partP != p {
		e.part = s.Partition(p)
		e.partKey = key
		e.partN = n
		e.partP = p
	}
	return e.part
}

// runSharded partitions ONE run across cores: the conservative parallel
// path of Engine. The graph is split into P contiguous node ranges
// (see Partition), each driven by its own engineCore event loop, and the
// cores synchronize at windows of width W = the Delayer's Lookahead.
//
// Conservative correctness. Every delay is ≥ W, so an event processed at
// time t schedules its children no earlier than fl(t+W) — and by
// round-to-nearest monotonicity, no earlier than the window end
// fl(globalNext + W) for any t ≥ globalNext (the FIFO clamp only raises
// delivery times, preserving the bound). Windows are anchored at the exact
// global minimum pending time, so no event pushed during a window can be
// processed inside it: cores drain their windows independently, staging
// every outgoing message in a per-core outbox instead of pushing it.
//
// Determinism. Node and CSR-edge state is touched only by the owning core
// (disjoint index ranges of the shared scratch), so within a window the
// cores commute. Cross-window order is reconstructed at the barrier: staged
// sends are k-way merged by the sending event's key (at, vseq) — stable
// within a core, and keys are globally unique — which is exactly the
// sequential path's push order, so the consecutively assigned vseq
// numbers equal the seq numbers a sequential run would have used. Every
// core's heap orders by (at, seq), hence every core processes its events
// in the same relative order the sequential path would, and the marshaled
// Result is byte-identical at every shard count — pinned by the
// differential tests.
//
// Observers cannot be called from P goroutines, so cores record deferred
// observer calls tagged with the event key and the coordinator replays the
// merged streams in key order at each barrier, reproducing the sequential
// call sequence exactly (traces and digests included).
func (e *Engine) runSharded(cfg Config, wakeups []Wakeup, W Time, t0 int64) (*Result, error) {
	tr := cfg.Tracer
	r := &e.run
	part := r.part
	alg := r.alg
	p := part.P
	if tr != nil {
		tr.ExecBegin(p + 1) // track 0: coordinator; tracks 1..p: shards
	}

	if len(e.cores) != p {
		e.cores = make([]engineCore, p)
		e.inboxes = make([][]event, p)
		e.cursors = make([]int, p)
	}

	obs := cfg.Observer
	for i := 0; i < p; i++ {
		c := &e.cores[i]
		c.reset(r)
		c.obs = nil
		c.staging = true
		c.recOn = obs != nil
	}

	// Scatter the wake schedule: wakeups take vseq 0..len-1 in schedule
	// order, exactly the seq numbers the sequential path's initial pushes
	// assign.
	inboxMin := infTime
	for i, wk := range wakeups {
		ev := event{at: wk.At, seq: int64(i), kind: evWake, node: wk.Node}
		d := part.NodeShard[wk.Node]
		e.inboxes[d] = append(e.inboxes[d], ev)
		if ev.at < inboxMin {
			inboxMin = ev.at
		}
	}
	globalVseq := int64(len(wakeups))
	maxEvents := maxEventsFor(cfg, DefaultMaxEvents)
	totalEvents := 0

	var wg sync.WaitGroup
	cmds := make([]chan shardCmd, p)
	for i := 0; i < p; i++ {
		cmds[i] = make(chan shardCmd, 1)
		// Each worker owns its shard's trace track (track = shard + 1) and
		// tiles it exactly: barrier [previous busy end → command receipt],
		// busy [receipt → window drained]. Tracer calls stay outside
		// runWindow, which is //wakeup:noalloc.
		go func(c *engineCore, cmd chan shardCmd, track int32) {
			var prevEnd int64
			if tr != nil {
				prevEnd = tr.ExecNow()
			}
			for w := range cmd {
				if tr == nil {
					c.runWindow(w.inbox, w.windowEnd, w.budget)
					wg.Done()
					continue
				}
				b0 := tr.ExecNow()
				tr.ExecRecord(ExecSpan{Track: track, Kind: ExecBarrier, Window: w.win, Start: prevEnd, End: b0})
				ev0 := c.events
				c.runWindow(w.inbox, w.windowEnd, w.budget)
				b1 := tr.ExecNow()
				tr.ExecRecord(ExecSpan{Track: track, Kind: ExecBusy, Window: w.win, Events: int64(c.events - ev0), Start: b0, End: b1})
				prevEnd = b1
				wg.Done()
			}
		}(&e.cores[i], cmds[i], int32(i+1))
	}
	defer func() {
		for _, cmd := range cmds {
			close(cmd)
		}
	}()

	t1 := execPhase(tr, ExecSetup, t0, 0)
	var winIdx int64

	for {
		globalNext := inboxMin
		for i := range e.cores {
			if e.cores[i].nextAt < globalNext {
				globalNext = e.cores[i].nextAt
			}
		}
		if globalNext == infTime {
			break // nothing pending anywhere: the run has quiesced
		}
		windowEnd := globalNext + W
		if !(windowEnd > globalNext) {
			// At very large times the width can round away entirely; the
			// next representable instant still covers every event at exactly
			// globalNext, so each window makes progress.
			windowEnd = Time(math.Nextafter(float64(globalNext), math.Inf(1)))
		}

		prevTotal := totalEvents
		var c0 int64
		if tr != nil {
			c0 = tr.ExecNow()
		}
		wg.Add(p)
		for i := 0; i < p; i++ {
			cmds[i] <- shardCmd{inbox: e.inboxes[i], windowEnd: windowEnd, budget: maxEvents + 1, win: winIdx}
		}
		wg.Wait()
		if tr != nil {
			// The coordinator's barrier span: dispatching the window and
			// waiting for the slowest shard to drain it.
			tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecBarrier, Window: winIdx, Start: c0, End: tr.ExecNow()})
		}

		totalEvents = 0
		for i := range e.cores {
			totalEvents += e.cores[i].events
		}
		for i := range e.inboxes {
			in := e.inboxes[i]
			clear(in) // release Delivery.Msg references
			e.inboxes[i] = in[:0]
		}

		// Error selection: the error the sequential path reports first is
		// the one raised by the event with the minimal (at, vseq) key — all
		// events below that key completed cleanly on every core (cores drain
		// in key order). An event-limit overrun that sequentially precedes
		// the erroring event (prevTotal ≥ maxEvents: the limit was crossed
		// in an earlier window's event range) takes priority instead.
		if errCore := e.minErrCore(); errCore != nil {
			if prevTotal >= maxEvents {
				return nil, eventLimitErr(maxEvents, alg)
			}
			if obs != nil {
				e.replay(obs, errCore.curAt, errCore.curVseq)
			}
			return nil, errCore.err
		}
		if totalEvents > maxEvents {
			// The sequential path stops after exactly maxEvents events, so
			// its trace of the aborted window is a prefix of ours; the
			// Result is nil either way, and the records are dropped.
			return nil, eventLimitErr(maxEvents, alg)
		}

		if obs != nil {
			var r0 int64
			if tr != nil {
				r0 = tr.ExecNow()
			}
			e.replay(obs, infTime, math.MaxInt64)
			if tr != nil {
				tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecReplay, Window: winIdx, Start: r0, End: tr.ExecNow()})
			}
		}
		var m0 int64
		if tr != nil {
			m0 = tr.ExecNow()
		}
		inboxMin = e.mergeStaged(&globalVseq)
		if tr != nil {
			m1 := tr.ExecNow()
			tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecMerge, Window: winIdx, Start: m0, End: m1})
			tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecWindow, Window: winIdx, Events: int64(totalEvents - prevTotal), Start: m1, End: m1})
		}
		winIdx++
	}

	t2 := execPhase(tr, ExecRun, t1, totalEvents)

	// The run ends at the event a sequential run pops last: the largest
	// (at, vseq) key any core processed. Taking that core's now, not a
	// max over the cores' times, keeps the sign of a −0 end.
	end := Time(0)
	var last *engineCore
	for i := range e.cores {
		c := &e.cores[i]
		if c.events > 0 && (last == nil || c.curAt > last.curAt ||
			c.curAt == last.curAt && c.curVseq > last.curVseq) {
			last = c
		}
	}
	if last != nil {
		end = last.now
	}
	if end >= maxWake {
		return nil, timeLimitErr(end)
	}
	res := r.result(alg.Name(), e.cores, end, firstWake(wakeups), cfg.TrackPorts)
	return e.finishRun(cfg, res, p, t2)
}

// minErrCore returns the erroring core whose failing event has the minimal
// (at, vseq) key — the error a sequential run would hit first — or nil.
func (e *Engine) minErrCore() *engineCore {
	var best *engineCore
	for i := range e.cores {
		c := &e.cores[i]
		if c.err == nil {
			continue
		}
		if best == nil || c.curAt < best.curAt ||
			(c.curAt == best.curAt && c.curVseq < best.curVseq) {
			best = c
		}
	}
	return best
}

// mergeStaged k-way merges every core's outbox by the sending event's key
// (pAt, pVseq) — globally unique, so ties exist only within one core, where
// list order already preserves them — assigns consecutive vseq numbers in
// merged order, and routes each event to its destination shard's inbox. It
// returns the minimum delivery time routed, for the next window anchor.
func (e *Engine) mergeStaged(globalVseq *int64) Time {
	inboxMin := infTime
	cur := e.cursors
	for i := range cur {
		cur[i] = 0
	}
	for {
		best := -1
		for i := range e.cores {
			st := e.cores[i].staged
			if cur[i] >= len(st) {
				continue
			}
			if best == -1 || parentLess(&st[cur[i]], &e.cores[best].staged[cur[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		sd := &e.cores[best].staged[cur[best]]
		cur[best]++
		ev := sd.ev
		ev.seq = *globalVseq
		*globalVseq++
		if ev.at < inboxMin {
			inboxMin = ev.at
		}
		//lint:noalloc-ok inboxes grow to their high-water window size, then reuse the array (the barrier truncates, keeping capacity)
		e.inboxes[sd.dest] = append(e.inboxes[sd.dest], ev)
	}
	for i := range e.cores {
		truncateStaged(&e.cores[i])
	}
	return inboxMin
}

// parentLess orders staged sends by sending-event key.
func parentLess(x, y *stagedSend) bool {
	if x.pAt != y.pAt {
		return x.pAt < y.pAt
	}
	return x.pVseq < y.pVseq
}

// replay k-way merges every core's deferred observer records by event key
// and replays them — in exactly the order a sequential run would have made
// the calls — up to and including the key (maxAt, maxVseq). Cores
// truncate their record lists afterwards.
func (e *Engine) replay(obs Observer, maxAt Time, maxVseq int64) {
	cur := e.cursors
	for i := range cur {
		cur[i] = 0
	}
	for {
		best := -1
		for i := range e.cores {
			rec := e.cores[i].rec
			if cur[i] >= len(rec) {
				continue
			}
			if best == -1 || recordLess(&rec[cur[i]], &e.cores[best].rec[cur[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		r := &e.cores[best].rec[cur[best]]
		cur[best]++
		if r.kAt > maxAt || (r.kAt == maxAt && r.kVseq > maxVseq) {
			continue // beyond the error key: sequential never got here
		}
		switch r.kind {
		case recWake:
			obs.OnWake(r.kAt, r.node, r.adv)
		case recDeliver:
			obs.OnDeliver(r.kAt, r.node, r.d)
		case recSend:
			obs.OnSend(r.kAt, r.node, r.port, r.d.Msg)
		}
	}
	for i := range e.cores {
		truncateRec(&e.cores[i])
	}
}

// recordLess orders observer records by event key. Records within one core
// share keys (one event makes several calls); list order preserves them.
func recordLess(x, y *obsRecord) bool {
	if x.kAt != y.kAt {
		return x.kAt < y.kAt
	}
	return x.kVseq < y.kVseq
}

// truncateStaged and truncateRec empty a core's barrier buffers, releasing
// payload references but keeping capacity for the next window.
func truncateStaged(c *engineCore) {
	if len(c.staged) > 0 {
		clear(c.staged)
		c.staged = c.staged[:0]
	}
}

func truncateRec(c *engineCore) {
	if len(c.rec) > 0 {
		clear(c.rec)
		c.rec = c.rec[:0]
	}
}
