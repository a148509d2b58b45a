package sim

// AsSync adapts a purely message-driven asynchronous algorithm to
// synchronous rounds: OnWake maps to the wake round and each delivered
// message becomes an OnMessage call during OnRound. This is exactly the
// classical simulation of an asynchronous algorithm in a synchronous
// network (unit delays).
func AsSync(alg Algorithm) SyncAlgorithm { return syncAdapted{alg: alg} }

type syncAdapted struct {
	alg Algorithm
}

var _ SyncAlgorithm = syncAdapted{}

func (a syncAdapted) Name() string { return a.alg.Name() }

func (a syncAdapted) NewMachine(info NodeInfo) SyncProgram {
	return &syncAdaptedMachine{p: a.alg.NewMachine(info)}
}

type syncAdaptedMachine struct {
	p Program
}

func (m *syncAdaptedMachine) OnWake(ctx Context) { m.p.OnWake(ctx) }

func (m *syncAdaptedMachine) OnRound(ctx Context, inbox []Delivery) {
	for _, d := range inbox {
		m.p.OnMessage(ctx, d)
	}
}
