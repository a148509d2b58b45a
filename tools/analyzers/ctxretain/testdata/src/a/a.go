// Package a exercises the ctxretain checks.
package a

import "riseandshine/internal/sim"

var kept sim.Context

var pending []sim.Context

type machine struct {
	ctx   sim.Context
	later func()
	other sim.Other
}

type holder struct{ m *machine }

// OnWake keeps its Context in every reported way.
func (m *machine) OnWake(ctx sim.Context) {
	m.ctx = ctx                    // want `ctxretain: sim.Context stored in struct field ctx`
	kept = ctx                     // want `ctxretain: sim.Context stored in package variable kept`
	pending = append(pending, ctx) // want `ctxretain: sim.Context appended to a container`
	byNode := map[int]sim.Context{}
	byNode[1] = ctx                       // want `ctxretain: sim.Context stored in a container`
	_ = []sim.Context{ctx}                // want `ctxretain: sim.Context stored in a container`
	_ = &machine{ctx: ctx}                // want `ctxretain: sim.Context stored in a struct field`
	m.later = func() { ctx.Send(1, nil) } // want `ctxretain: sim.Context stored in struct field later`
	h := holder{m: m}
	h.m.ctx = ctx // want `ctxretain: sim.Context stored in struct field ctx`
	ch := make(chan sim.Context, 1)
	ch <- ctx     // want `ctxretain: sim.Context sent on a channel`
	go relay(ctx) // want `ctxretain: sim.Context passed to a go statement`
	go func() {
		ctx.Send(2, nil) // want `ctxretain: sim.Context captured by a go statement`
	}()
	var slot *sim.Context = new(sim.Context)
	*slot = ctx // want `ctxretain: sim.Context stored through a pointer`
}

// OnMessage only uses its Context during the call: nothing is reported.
func (m *machine) OnMessage(ctx sim.Context) {
	local := ctx
	local.Send(1, nil)
	send := func() { ctx.Send(2, nil) }
	send()
	relay(ctx)
	m.other = nil
	var o sim.Other = ctx
	m.other = o // a different interface type, not a Context
}

// Justified keeps one under a documented reason.
func (m *machine) Justified(ctx sim.Context) {
	//lint:ctxretain-ok the engine in this fixture hands each node its own Context
	m.ctx = ctx
	//lint:ctxretain-ok
	kept = ctx // want `ctxretain: suppression lint:ctxretain-ok requires a justification`
}

func relay(ctx sim.Context) { ctx.Send(3, nil) }
