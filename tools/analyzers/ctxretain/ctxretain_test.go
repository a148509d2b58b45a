package ctxretain_test

import (
	"testing"

	"riseandshine/tools/analyzers/analysistest"
	"riseandshine/tools/analyzers/ctxretain"
)

func TestCtxRetain(t *testing.T) {
	analysistest.Run(t, ".", ctxretain.Analyzer, "riseandshine/internal/sim", "a")
}
