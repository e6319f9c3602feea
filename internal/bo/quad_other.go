//go:build !amd64

package bo

// quadKernel is false where there is no assembly kernel: PredictBatchInto
// runs every quad through predictRows.
var quadKernel = false

func predictQuadAVX2(*quadState, int) int {
	panic("bo: predictQuadAVX2 called without the amd64 kernel")
}
