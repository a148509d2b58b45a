// Package sim is a stand-in for the simulator package: just the Context
// interface the analyzer matches by import path and name.
package sim

// Context is the handler's view of its node.
type Context interface {
	Send(port int, m any)
}

// Other has Context's method set but is a different type: never matched.
type Other interface {
	Send(port int, m any)
}
