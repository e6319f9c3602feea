package sessiond_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
)

// newStreamService spins up a service plus HTTP server shaped like the
// integration suite's.
func newStreamService(t *testing.T) (*sessiond.Service, *httptest.Server) {
	t.Helper()
	svc, err := sessiond.New(sessiond.Config{
		Shards:           4,
		SessionsPerShard: 32,
		QueueBound:       128,
		RetryAfterSec:    1,
		MaxBatch:         8,
		MeshCacheCap:     2,
	}, nil)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// attachStream gives a session client a stream transport of its own.
func attachStream(t *testing.T, sc *sessiond.Client, ec *edge.Client) *sessiond.StreamClient {
	t.Helper()
	stream, err := sessiond.NewStreamClient(ec)
	if err != nil {
		t.Fatalf("stream client: %v", err)
	}
	sc.SetStream(stream)
	t.Cleanup(func() { _ = stream.Close() })
	return stream
}

func newStreamedClient(t *testing.T, baseURL, id string, seed uint64) (*sessiond.Client, *sessiond.StreamClient, *edge.Client) {
	t.Helper()
	ec, err := edge.NewClient(baseURL)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	sc, err := sessiond.NewClient(ec, id, testResources, testRMin, seed, testInit)
	if err != nil {
		t.Fatalf("session client: %v", err)
	}
	return sc, attachStream(t, sc, ec), ec
}

// driveSession runs steps suggest→observe rounds against a reference
// optimizer, failing on the first bitwise divergence.
func driveSession(t *testing.T, ctx context.Context, sc *sessiond.Client, seed uint64, from, to int) {
	t.Helper()
	ref := refOptimizer(t, seed)
	refPoints := make([][]float64, 0, to)
	for k := 0; k < to; k++ {
		want, err := ref.Next()
		if err != nil {
			t.Fatalf("reference next %d: %v", k, err)
		}
		refPoints = append(refPoints, want)
		if k < from {
			// Catch the reference up to where the server session already is.
			if err := ref.Observe(want, testCost(seed, k, want)); err != nil {
				t.Fatalf("reference observe %d: %v", k, err)
			}
			continue
		}
		got, err := sc.Suggest(ctx)
		if err != nil {
			t.Fatalf("suggest %d: %v", k, err)
		}
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("step %d dim %d: got %x want %x", k, d, math.Float64bits(got[d]), math.Float64bits(want[d]))
			}
		}
		cost := testCost(seed, k, want)
		if err := sc.ObserveAt(ctx, k, want, cost); err != nil {
			t.Fatalf("observe %d: %v", k, err)
		}
		if err := ref.Observe(want, cost); err != nil {
			t.Fatalf("reference observe %d: %v", k, err)
		}
	}
	_ = refPoints
}

// TestStreamMatchesJSONBitIdentical drives two same-seeded sessions through
// the same server, one over JSON POSTs and one over the binary stream, and
// requires bitwise-identical suggestion trajectories — the stream transport
// must be a pure transport swap, invisible to the optimizer.
func TestStreamMatchesJSONBitIdentical(t *testing.T) {
	_, ts := newStreamService(t)
	ctx := context.Background()
	const seed = 4242
	const steps = 8

	jsonClient := newTestClient(t, ts.URL, "wire-json", seed)
	if _, err := jsonClient.Open(ctx); err != nil {
		t.Fatalf("json open: %v", err)
	}
	streamClient, stream, _ := newStreamedClient(t, ts.URL, "wire-stream", seed)
	if _, err := streamClient.Open(ctx); err != nil {
		t.Fatalf("stream open: %v", err)
	}

	refJSON := refOptimizer(t, seed)
	for k := 0; k < steps; k++ {
		pj, err := jsonClient.Suggest(ctx)
		if err != nil {
			t.Fatalf("json suggest %d: %v", k, err)
		}
		ps, err := streamClient.Suggest(ctx)
		if err != nil {
			t.Fatalf("stream suggest %d: %v", k, err)
		}
		want, err := refJSON.Next()
		if err != nil {
			t.Fatalf("reference %d: %v", k, err)
		}
		for d := range want {
			wb := math.Float64bits(want[d])
			if math.Float64bits(pj[d]) != wb {
				t.Fatalf("json step %d dim %d diverged from reference", k, d)
			}
			if math.Float64bits(ps[d]) != wb {
				t.Fatalf("stream step %d dim %d: got %x want %x", k, d, math.Float64bits(ps[d]), wb)
			}
		}
		cost := testCost(seed, k, want)
		if err := jsonClient.Observe(ctx, want, cost); err != nil {
			t.Fatalf("json observe %d: %v", k, err)
		}
		if err := streamClient.ObserveAt(ctx, k, want, cost); err != nil {
			t.Fatalf("stream observe %d: %v", k, err)
		}
		if err := refJSON.Observe(want, cost); err != nil {
			t.Fatalf("reference observe %d: %v", k, err)
		}
	}
	if got := stream.Mode(); got != "stream" {
		t.Fatalf("stream client negotiated mode %q, want stream", got)
	}
	if err := streamClient.CloseSession(ctx); err != nil {
		t.Fatalf("stream close: %v", err)
	}
}

// TestStreamFallbackOldServer points a stream-enabled client at a server
// without the /session/stream route (an old binary: its mux 404s unknown
// paths). Every call must transparently fall back to JSON, the negotiated
// mode must latch to "json", and — critically — the failed probe must not
// trip the circuit breaker, because a missing route is not link failure.
func TestStreamFallbackOldServer(t *testing.T) {
	svc, err := sessiond.New(sessiond.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	defer svc.Close()
	full := svc.Handler()
	oldServer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/session/stream" {
			http.NotFound(w, r)
			return
		}
		full.ServeHTTP(w, r)
	}))
	defer oldServer.Close()

	ctx := context.Background()
	const seed = 99
	sc, stream, ec := newStreamedClient(t, oldServer.URL, "old-srv", seed)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open via fallback: %v", err)
	}
	driveSession(t, ctx, sc, seed, 0, 4)
	if err := sc.CloseSession(ctx); err != nil {
		t.Fatalf("close via fallback: %v", err)
	}
	if got := stream.Mode(); got != "json" {
		t.Fatalf("negotiated mode %q, want json", got)
	}
	bs := ec.BreakerStats()
	if bs.State != edge.BreakerClosed {
		t.Fatalf("breaker state %v after fallback, want closed", bs.State)
	}
	if bs.ShortCircuits != 0 {
		t.Fatalf("breaker short-circuited %d calls during fallback", bs.ShortCircuits)
	}
	// "No stream route" is a property of the server, not link sickness: the
	// probe must not register breaker failures at all.
	if bs.Failures != 0 {
		t.Fatalf("fallback recorded %d breaker failures, want 0", bs.Failures)
	}
}

// TestJSONClientAgainstStreamServer pins the other compatibility direction:
// a plain JSON client (no stream attached) against a stream-capable server.
func TestJSONClientAgainstStreamServer(t *testing.T) {
	_, ts := newStreamService(t)
	ctx := context.Background()
	sc := newTestClient(t, ts.URL, "json-only", 7)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	driveSession(t, ctx, sc, 7, 0, 3)
	if err := sc.CloseSession(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestStreamReconnectAfterDrop severs every live connection mid-session and
// checks the stream client transparently redials: the trajectory continues
// bit-identically (the indexed observes make retries exactly-once) and the
// breaker ends the run closed.
func TestStreamReconnectAfterDrop(t *testing.T) {
	_, ts := newStreamService(t)
	ctx := context.Background()
	const seed = 31337
	sc, stream, ec := newStreamedClient(t, ts.URL, "dropper", seed)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	ref := refOptimizer(t, seed)
	for k := 0; k < 10; k++ {
		if k == 3 || k == 7 {
			// Sever every connection the server holds — the stream dies
			// between calls, exactly like an edge network drop.
			ts.CloseClientConnections()
		}
		got, err := sc.Suggest(ctx)
		if err != nil {
			t.Fatalf("suggest %d after drop: %v", k, err)
		}
		want, err := ref.Next()
		if err != nil {
			t.Fatalf("reference %d: %v", k, err)
		}
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("step %d dim %d diverged after reconnect", k, d)
			}
		}
		cost := testCost(seed, k, want)
		if err := sc.ObserveAt(ctx, k, want, cost); err != nil {
			t.Fatalf("observe %d after drop: %v", k, err)
		}
		if err := ref.Observe(want, cost); err != nil {
			t.Fatalf("reference observe %d: %v", k, err)
		}
	}
	if got := stream.Mode(); got != "stream" {
		t.Fatalf("mode %q after reconnects, want stream — a drop must not demote to JSON", got)
	}
	if bs := ec.BreakerStats(); bs.State != edge.BreakerClosed {
		t.Fatalf("breaker state %v after reconnects, want closed", bs.State)
	}
}

// TestStreamDuplicateObserveAcked replays an already-applied indexed observe
// — what a reconnect retry does when the first send landed but its response
// was lost — and requires the server to acknowledge without double-applying.
func TestStreamDuplicateObserveAcked(t *testing.T) {
	_, ts := newStreamService(t)
	ctx := context.Background()
	const seed = 555
	sc, stream, _ := newStreamedClient(t, ts.URL, "dup", seed)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	point, err := sc.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest: %v", err)
	}
	resp, err := stream.Observe(ctx, "dup", 0, point, 0.25)
	if err != nil {
		t.Fatalf("first observe: %v", err)
	}
	if resp.Observations != 1 {
		t.Fatalf("first observe: server holds %d observations, want 1", resp.Observations)
	}
	// The replay: same index, same payload. Must ack, not append.
	resp, err = stream.Observe(ctx, "dup", 0, point, 0.25)
	if err != nil {
		t.Fatalf("replayed observe: %v", err)
	}
	if resp.Observations != 1 {
		t.Fatalf("replayed observe appended: server holds %d observations, want 1", resp.Observations)
	}
	// A gap — index beyond the database — must be rejected, not applied.
	if _, err := stream.Observe(ctx, "dup", 5, point, 0.25); err == nil {
		t.Fatal("gapped observe index accepted")
	}
	// The session must still be coherent: reference fed the point once.
	ref := refOptimizer(t, seed)
	refP, err := ref.Next()
	if err != nil {
		t.Fatalf("reference next: %v", err)
	}
	if err := ref.Observe(refP, 0.25); err != nil {
		t.Fatalf("reference observe: %v", err)
	}
	got, err := sc.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest after replay: %v", err)
	}
	want, err := ref.Next()
	if err != nil {
		t.Fatalf("reference next 2: %v", err)
	}
	for d := range want {
		if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
			t.Fatalf("dim %d diverged after duplicate observe — double-applied?", d)
		}
	}
}

// TestStreamMultiplexSharedClient runs 16 sessions concurrently over ONE
// stream client (one connection) and requires every session's suggestion
// stream to match its private reference — multiplexing must not leak or
// reorder responses across sessions.
func TestStreamMultiplexSharedClient(t *testing.T) {
	_, ts := newStreamService(t)
	ec, err := edge.NewClient(ts.URL)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	shared, err := sessiond.NewStreamClient(ec)
	if err != nil {
		t.Fatalf("stream client: %v", err)
	}
	defer func() { _ = shared.Close() }()

	ctx := context.Background()
	const sessions = 16
	const steps = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("mux-%02d", i)
			seed := uint64(9000 + i)
			sc, err := sessiond.NewClient(ec, id, testResources, testRMin, seed, testInit)
			if err != nil {
				errs <- err
				return
			}
			sc.SetStream(shared)
			if _, err := sc.Open(ctx); err != nil {
				errs <- fmt.Errorf("%s: open: %w", id, err)
				return
			}
			ref := refOptimizer(t, seed)
			for k := 0; k < steps; k++ {
				got, err := sc.Suggest(ctx)
				if err != nil {
					errs <- fmt.Errorf("%s: suggest %d: %w", id, k, err)
					return
				}
				want, err := ref.Next()
				if err != nil {
					errs <- fmt.Errorf("%s: reference %d: %w", id, k, err)
					return
				}
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
						errs <- fmt.Errorf("%s: step %d dim %d: cross-session bleed over shared stream", id, k, d)
						return
					}
				}
				cost := testCost(seed, k, want)
				if err := sc.ObserveAt(ctx, k, want, cost); err != nil {
					errs <- fmt.Errorf("%s: observe %d: %w", id, k, err)
					return
				}
				if err := ref.Observe(want, cost); err != nil {
					errs <- fmt.Errorf("%s: reference observe %d: %w", id, k, err)
					return
				}
			}
			if err := sc.CloseSession(ctx); err != nil {
				errs <- fmt.Errorf("%s: close: %w", id, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStreamDecodeErrorAccounting separates the two ways a stream read loop
// ends early: codec garbage must increment the decode-error counter, while
// a connection dropped mid-frame — ordinary client churn — must not. The
// load generator's own clean shutdowns were once miscounted as corruption.
func TestStreamDecodeErrorAccounting(t *testing.T) {
	svc, ts := newStreamService(t)
	// Codec garbage: a length prefix far outside the frame bounds.
	resp, err := http.Post(ts.URL+"/session/stream", "application/octet-stream",
		bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}))
	if err != nil {
		t.Fatalf("garbage post: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if got := svc.Streams().DecodeErrors; got != 1 {
		t.Fatalf("garbage frame counted %d decode errors, want 1", got)
	}
	// Mid-frame drop: a plausible length prefix, then the body dies.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/session/stream", pr)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err = ts.Client().Do(req) // returns once the server flushes 200
	if err != nil {
		t.Fatalf("stream post: %v", err)
	}
	if _, err := pw.Write([]byte{16, 0, 0, 0, 1, 2}); err != nil {
		t.Fatalf("partial frame: %v", err)
	}
	_ = pw.CloseWithError(errors.New("simulated drop"))
	_ = resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Streams().Open != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never noticed the dropped stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := svc.Streams().DecodeErrors; got != 1 {
		t.Fatalf("dropped connection counted as decode error: %d, want 1", got)
	}
}

// TestStreamStatz drives stream traffic without any registry attached and
// checks the /session/statz stream block counts it — the plain-atomic path
// must work observer or not.
func TestStreamStatz(t *testing.T) {
	svc, ts := newStreamService(t)
	ctx := context.Background()
	sc, _, _ := newStreamedClient(t, ts.URL, "statz", 12)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := sc.Suggest(ctx); err != nil {
		t.Fatalf("suggest: %v", err)
	}
	st := svc.Streams()
	// Hello + open + suggest at minimum, each answered.
	if st.FramesIn < 3 || st.FramesOut < 3 {
		t.Fatalf("stream stats undercount traffic: %+v", st)
	}
	if st.Open != 1 {
		t.Fatalf("streams open = %d, want 1", st.Open)
	}
	if st.DecodeErrors != 0 {
		t.Fatalf("decode errors on a clean stream: %+v", st)
	}
}
