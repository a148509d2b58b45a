package sim

// Differential helpers for the external tests of this package, which run
// the algorithms of internal/core (an importer of sim) on the engine.
var (
	WithDigests     = withDigests
	MarshalDigested = marshalDigested
)
