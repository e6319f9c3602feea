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
		MeshCacheCap:     2,
	}, nil)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// newStreamedClient builds a session client multiplexed over a stream
// client of its own, closed at test cleanup.
func newStreamedClient(t *testing.T, baseURL, id string, seed uint64) (*sessiond.Client, *edge.Client) {
	t.Helper()
	ec, err := edge.NewClient(baseURL)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	sc, err := sessiond.NewClient(ec, id, testResources, testRMin, seed, testInit)
	if err != nil {
		t.Fatalf("session client: %v", err)
	}
	stream, err := sessiond.NewStreamClient(ec)
	if err != nil {
		t.Fatalf("stream client: %v", err)
	}
	sc.SetStream(stream)
	t.Cleanup(func() { _ = stream.Close() })
	return sc, ec
}

// TestStreamMatchesOneShotBitIdentical drives two same-seeded sessions
// through the same server, one POSTing each op as a single frame and one
// multiplexed over a stream, and requires bitwise-identical suggestion
// trajectories matching a local reference — the carrier must be invisible
// to the optimizer.
func TestStreamMatchesOneShotBitIdentical(t *testing.T) {
	_, ts := newStreamService(t)
	ctx := context.Background()
	const seed = 4242
	const steps = 8

	oneShot := newTestClient(t, ts.URL, "wire-oneshot", seed)
	if _, err := oneShot.Open(ctx); err != nil {
		t.Fatalf("one-shot open: %v", err)
	}
	streamed, _ := newStreamedClient(t, ts.URL, "wire-stream", seed)
	if _, err := streamed.Open(ctx); err != nil {
		t.Fatalf("stream open: %v", err)
	}

	ref := refOptimizer(t, seed)
	for k := 0; k < steps; k++ {
		po, err := oneShot.Suggest(ctx)
		if err != nil {
			t.Fatalf("one-shot suggest %d: %v", k, err)
		}
		ps, err := streamed.Suggest(ctx)
		if err != nil {
			t.Fatalf("stream suggest %d: %v", k, err)
		}
		want, err := ref.Next()
		if err != nil {
			t.Fatalf("reference %d: %v", k, err)
		}
		for d := range want {
			wb := math.Float64bits(want[d])
			if math.Float64bits(po[d]) != wb {
				t.Fatalf("one-shot step %d dim %d: got %x want %x", k, d, math.Float64bits(po[d]), wb)
			}
			if math.Float64bits(ps[d]) != wb {
				t.Fatalf("stream step %d dim %d: got %x want %x", k, d, math.Float64bits(ps[d]), wb)
			}
		}
		cost := testCost(seed, k, want)
		if err := oneShot.ObserveAt(ctx, k, want, cost); err != nil {
			t.Fatalf("one-shot observe %d: %v", k, err)
		}
		if err := streamed.ObserveAt(ctx, k, want, cost); err != nil {
			t.Fatalf("stream observe %d: %v", k, err)
		}
		if err := ref.Observe(want, cost); err != nil {
			t.Fatalf("reference observe %d: %v", k, err)
		}
	}
	for _, sc := range []*sessiond.Client{oneShot, streamed} {
		if err := sc.CloseSession(ctx); err != nil {
			t.Fatalf("%s close: %v", sc.ID(), err)
		}
	}
}

// TestSuggestAfterCloseServed calls Close on a live service and then
// suggests: Close has nothing to stop, so the suggest must be served
// normally — the suggestion the session's own optimizer would make, not a
// failed or dropped request.
func TestSuggestAfterCloseServed(t *testing.T) {
	svc, ts := newStreamService(t)
	ctx := context.Background()
	const seed = 7
	cfg := edge.DefaultClientConfig()
	cfg.MaxRetries = 0
	ec, err := edge.NewClientWithConfig(ts.URL, 0, cfg)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	sc, err := sessiond.NewClient(ec, "after-close", testResources, testRMin, seed, testInit)
	if err != nil {
		t.Fatalf("session client: %v", err)
	}
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	svc.Close()
	got, err := sc.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest after Close: %v", err)
	}
	want, err := refOptimizer(t, seed).Next()
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for d := range want {
		if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
			t.Fatalf("suggest after Close dim %d = %v, want %v", d, got[d], want[d])
		}
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
	sc, ec := newStreamedClient(t, ts.URL, "dropper", seed)
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
	if bs := ec.BreakerStats(); bs.State != edge.BreakerClosed {
		t.Fatalf("breaker state %v after reconnects, want closed", bs.State)
	}
}

// TestStreamDuplicateObserveAcked replays an already-applied indexed observe
// over the stream — what a reconnect retry does when the first send landed
// but its response was lost — and requires the server to acknowledge
// without double-applying.
func TestStreamDuplicateObserveAcked(t *testing.T) {
	_, ts := newStreamService(t)
	ctx := context.Background()
	const seed = 555
	sc, _ := newStreamedClient(t, ts.URL, "dup", seed)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	point, err := sc.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest: %v", err)
	}
	// held re-opens the live session, which reports its database size.
	held := func(what string) int {
		t.Helper()
		resp, err := sc.Open(ctx)
		if err != nil || !resp.Existing {
			t.Fatalf("%s: re-open = %+v (err %v), want the live session", what, resp, err)
		}
		return resp.Observations
	}
	if err := sc.ObserveAt(ctx, 0, point, 0.25); err != nil {
		t.Fatalf("first observe: %v", err)
	}
	if n := held("first observe"); n != 1 {
		t.Fatalf("first observe: server holds %d observations, want 1", n)
	}
	// The replay: same index, same payload. Must ack, not append.
	if err := sc.ObserveAt(ctx, 0, point, 0.25); err != nil {
		t.Fatalf("replayed observe: %v", err)
	}
	if n := held("replayed observe"); n != 1 {
		t.Fatalf("replayed observe appended: server holds %d observations, want 1", n)
	}
	// A gap — index beyond the database — must be rejected, not applied.
	err = sc.ObserveAt(ctx, 5, point, 0.25)
	if code, ok := edge.StatusCode(err); !ok || code != http.StatusUnprocessableEntity {
		t.Fatalf("gapped observe index = %v, want 422", err)
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
	sc, _ := newStreamedClient(t, ts.URL, "statz", 12)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := sc.Suggest(ctx); err != nil {
		t.Fatalf("suggest: %v", err)
	}
	st := svc.Streams()
	// Open + suggest at minimum, each answered.
	if st.FramesIn < 2 || st.FramesOut < 2 {
		t.Fatalf("stream stats undercount traffic: %+v", st)
	}
	if st.Open != 1 {
		t.Fatalf("streams open = %d, want 1", st.Open)
	}
	if st.DecodeErrors != 0 {
		t.Fatalf("decode errors on a clean stream: %+v", st)
	}
}
