package sessiond_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
)

// The suggest benchmarks compare the two carriers of a session op's frame
// over the same server and the same server-side work. Sessions are held in
// the BO init phase (suggests without observes never leave it), so each
// round trip costs the server one shard dispatch and one domain sample —
// the measured difference is the carrier: one single-frame POST per call,
// with its HTTP request and header traffic, versus frames multiplexed on
// one long-lived stream.

func benchService(b *testing.B) *httptest.Server {
	b.Helper()
	svc, err := sessiond.New(sessiond.Config{
		Shards:           4,
		SessionsPerShard: 1024,
		QueueBound:       4096,
		MeshCacheCap:     2,
	}, nil)
	if err != nil {
		b.Fatalf("service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func benchEdgeClient(b *testing.B, baseURL string) *edge.Client {
	b.Helper()
	ec, err := edge.NewClient(baseURL)
	if err != nil {
		b.Fatalf("edge client: %v", err)
	}
	return ec
}

func benchOpen(b *testing.B, ec *edge.Client, stream *sessiond.StreamClient, id string) *sessiond.Client {
	b.Helper()
	sc, err := sessiond.NewClient(ec, id, testResources, testRMin, 1, testInit)
	if err != nil {
		b.Fatalf("session client: %v", err)
	}
	if stream != nil {
		sc.SetStream(stream)
	}
	if _, err := sc.Open(context.Background()); err != nil {
		b.Fatalf("open %s: %v", id, err)
	}
	return sc
}

func benchSuggestLoop(b *testing.B, sc *sessiond.Client) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Suggest(ctx); err != nil {
			b.Fatalf("suggest %d: %v", i, err)
		}
	}
}

func BenchmarkSuggestOneShot(b *testing.B) {
	ts := benchService(b)
	ec := benchEdgeClient(b, ts.URL)
	sc := benchOpen(b, ec, nil, "bench-oneshot")
	b.ReportAllocs()
	b.ResetTimer()
	benchSuggestLoop(b, sc)
}

func BenchmarkSuggestStream(b *testing.B) {
	ts := benchService(b)
	ec := benchEdgeClient(b, ts.URL)
	stream, err := sessiond.NewStreamClient(ec)
	if err != nil {
		b.Fatalf("stream client: %v", err)
	}
	b.Cleanup(func() { _ = stream.Close() })
	sc := benchOpen(b, ec, stream, "bench-stream")
	b.ReportAllocs()
	b.ResetTimer()
	benchSuggestLoop(b, sc)
}

// The parallel variants model the loadgen shape: many concurrent sessions
// per core sharing one edge client — and, for the stream flavor, one
// multiplexed connection, which the server answers one frame at a time.
const benchSessionsPerCore = 8

func BenchmarkSuggestOneShotParallel(b *testing.B) {
	ts := benchService(b)
	ec := benchEdgeClient(b, ts.URL)
	var n atomic.Int64
	b.SetParallelism(benchSessionsPerCore)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sc := benchOpen(b, ec, nil, fmt.Sprintf("bench-oneshot-p%02d", n.Add(1)))
		ctx := context.Background()
		for pb.Next() {
			if _, err := sc.Suggest(ctx); err != nil {
				b.Errorf("suggest: %v", err)
				return
			}
		}
	})
}

func BenchmarkSuggestStreamParallel(b *testing.B) {
	ts := benchService(b)
	ec := benchEdgeClient(b, ts.URL)
	stream, err := sessiond.NewStreamClient(ec)
	if err != nil {
		b.Fatalf("stream client: %v", err)
	}
	b.Cleanup(func() { _ = stream.Close() })
	var n atomic.Int64
	b.SetParallelism(benchSessionsPerCore)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sc := benchOpen(b, ec, stream, fmt.Sprintf("bench-stream-p%02d", n.Add(1)))
		ctx := context.Background()
		for pb.Next() {
			if _, err := sc.Suggest(ctx); err != nil {
				b.Errorf("suggest: %v", err)
				return
			}
		}
	})
}
