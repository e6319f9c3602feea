package sessiond_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/render"
)

// routeMeshSink keeps BenchmarkDecimateRoute's decoded mesh live.
var routeMeshSink *mesh.Mesh

// BenchmarkDecimateRoute is one mesh fetch end to end over a loopback
// server: sessiond.Client.Decimate's request, the decimate route, and the
// client's decode. "hit" refetches one cached variant; "miss" cycles
// through 49 ratio steps, more than the session cache holds, so every
// fetch extracts the mesh from the object's progressive log and encodes it.
func BenchmarkDecimateRoute(b *testing.B) {
	spec := render.SC2()[1].Spec
	srv, err := edge.NewServer([]render.ObjectSpec{spec})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := sessiond.New(sessiond.DefaultConfig(), srv)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	b.Cleanup(ts.Close)
	b.Cleanup(svc.Close)
	ctx := context.Background()
	sc := benchOpen(b, benchEdgeClient(b, ts.URL), nil, "route")
	// Builds the object's log, so no timed fetch pays for it.
	if _, err := sc.Decimate(ctx, spec.Name, 0.5, false); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, ratio func(i int) float64) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if routeMeshSink, err = sc.Decimate(ctx, spec.Name, ratio(i), false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hit", func(b *testing.B) { run(b, func(int) float64 { return 0.5 }) })
	b.Run("miss", func(b *testing.B) { run(b, func(i int) float64 { return float64(1+i%49) / 50 }) })
}
