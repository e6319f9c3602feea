package sessiond

import (
	"testing"
)

// TestStreamNilRegistryNoAlloc pins the observability contract for the
// stream instruments: with no registry attached, the per-frame accounting a
// stream handler performs on every frame — plain atomics plus nil-receiver
// metric calls — and the statz snapshot must not allocate. This is what
// keeps the zero-alloc frame hot path honest when observability is off.
func TestStreamNilRegistryNoAlloc(t *testing.T) {
	svc, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	svc.SetObserver(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		// The exact bookkeeping serveFrames does per frame.
		svc.strFramesIn.Add(1)
		svc.metStreamFramesIn.Inc()
		svc.strFramesOut.Add(1)
		svc.metStreamFramesOut.Inc()
		svc.strDecodeErrs.Add(1)
		svc.metStreamDecodeErrs.Inc()
		svc.metStreamsOpen.Set(float64(svc.strOpen.Add(1)))
		svc.metStreamsOpen.Set(float64(svc.strOpen.Add(-1)))
	}); allocs != 0 {
		t.Fatalf("per-frame stream accounting allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = svc.Streams() }); allocs != 0 {
		t.Fatalf("Streams() allocates %v times per run, want 0", allocs)
	}
}
