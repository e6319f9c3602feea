package sessiond

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
)

// admissionService builds a one-shard service with the given suggest bound.
func admissionService(t *testing.T, queueBound int) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.QueueBound = queueBound
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

// heldSuggest is one admitted suggest parked on its session's lock.
type heldSuggest struct {
	sess     *session
	done     chan bool // the suggest's admission verdict, sent once it returns
	released bool
}

// holdSlots fills the single shard's in-flight bound the deterministic
// way: it opens one session per slot, holds each session's mu, and starts
// a suggest on each, which is admitted and then blocks on the lock. It
// returns once every slot is taken; releasing a held suggest unlocks its
// session and waits for it to answer, freeing its slot.
func holdSlots(t *testing.T, svc *Service) []*heldSuggest {
	t.Helper()
	bound := svc.cfg.QueueBound
	held := make([]*heldSuggest, bound)
	for i := range held {
		sess, _, err := svc.open(fmt.Sprintf("held%02d", i), testParams(uint64(100+i)))
		if err != nil {
			t.Fatalf("open held%02d: %v", i, err)
		}
		sess.mu.Lock()
		done := make(chan bool, 1)
		go func() {
			_, ok := svc.suggest(sess)
			done <- ok
		}()
		held[i] = &heldSuggest{sess: sess, done: done}
	}
	t.Cleanup(func() {
		for _, h := range held {
			if !h.released {
				release(t, h)
			}
		}
	})
	// Each goroutine either takes a slot and blocks on its session lock, or
	// returns rejected; the wait ends either way.
	for svc.shards[0].inFlight.Load() < int64(bound) {
		for i, h := range held {
			select {
			case ok := <-h.done:
				h.sess.mu.Unlock()
				h.released = true
				t.Fatalf("held suggest %d returned (admitted %v) while its session was locked", i, ok)
			default:
			}
		}
		runtime.Gosched()
	}
	return held
}

// release unlocks a held suggest's session and requires that the suggest
// had been admitted.
func release(t *testing.T, h *heldSuggest) {
	t.Helper()
	h.sess.mu.Unlock()
	h.released = true
	if !<-h.done {
		t.Fatal("a held suggest was rejected below the bound")
	}
}

// TestAdmissionQueueBound checks, across bounds, that exactly QueueBound
// suggests are admitted, the next is rejected, and freeing one slot admits
// the next.
func TestAdmissionQueueBound(t *testing.T) {
	cases := []struct {
		name  string
		bound int
	}{
		{"bound 1", 1},
		{"bound 4", 4},
		{"bound 32", 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := admissionService(t, tc.bound)
			sess, _, err := svc.open("a", testParams(1))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			held := holdSlots(t, svc)
			if _, ok := svc.suggest(sess); ok {
				t.Fatalf("suggest beyond bound %d admitted", tc.bound)
			}
			if got := svc.shards[0].inFlight.Load(); got != int64(tc.bound) {
				t.Fatalf("in flight after a rejection = %d, want %d", got, tc.bound)
			}
			release(t, held[0])
			res, ok := svc.suggest(sess)
			if !ok || res.err != nil {
				t.Fatalf("suggest after freeing a slot = (%v, admitted %v), want served", res.err, ok)
			}
		})
	}
}

// suggestClient builds a session client for the admission service's session
// "a" over the default single-frame carrier.
func suggestClient(t *testing.T, ec *edge.Client) *Client {
	t.Helper()
	sc, err := NewClient(ec, "a", 3, 0.1, 1, 5)
	if err != nil {
		t.Fatalf("session client: %v", err)
	}
	return sc
}

// TestAdmissionRejectHTTP checks the wire face of a rejection: a
// single-frame suggest POST is answered with an Error frame carrying 503 and
// the Retry-After hint in whole seconds, which the session client surfaces
// as a typed 503; once a slot frees, the next suggest is served.
func TestAdmissionRejectHTTP(t *testing.T) {
	svc := admissionService(t, 2)
	if _, _, err := svc.open("a", testParams(1)); err != nil {
		t.Fatalf("open: %v", err)
	}
	held := holdSlots(t, svc)

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	req, err := wire.AppendFrame(nil, &wire.Frame{Type: wire.TSuggestReq, ID: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post(ts.URL+streamPath, frameContentType, bytes.NewReader(req))
	if err != nil {
		t.Fatalf("suggest post: %v", err)
	}
	body, err := io.ReadAll(hresp.Body)
	_ = hresp.Body.Close()
	if err != nil {
		t.Fatalf("reading suggest response: %v", err)
	}
	var f wire.Frame
	err = decodeOneFrame(body, &f)
	if code, ok := edge.StatusCode(err); !ok || code != http.StatusServiceUnavailable {
		t.Fatalf("suggest response = %v, want a 503 Error frame", err)
	}
	if f.RetryAfterSec != retryAfterSec {
		t.Fatalf("Retry-After = %ds, want %ds", f.RetryAfterSec, retryAfterSec)
	}

	// No retries: TestClientHonorsRetryAfter covers the hinted backoff.
	cfg := edge.DefaultClientConfig()
	cfg.MaxRetries = 0
	ec, err := edge.NewClientWithConfig(ts.URL, 0, cfg)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	sc := suggestClient(t, ec)
	_, err = sc.Suggest(context.Background())
	if err == nil {
		t.Fatal("suggest against a full shard succeeded, want 503")
	}
	code, ok := edge.StatusCode(err)
	if !ok || code != 503 {
		t.Fatalf("suggest error = %v, want status 503", err)
	}
	if svc.metRejects != nil {
		t.Fatal("sanity: no registry attached, counters must be nil")
	}
	release(t, held[0])
	if _, err := sc.Suggest(context.Background()); err != nil {
		t.Fatalf("suggest after freeing a slot: %v", err)
	}
}

// TestClientHonorsRetryAfter checks that the edge client's retry loop
// stretches its backoff to the admission controller's Retry-After hint when
// the hint exceeds the computed exponential delay.
func TestClientHonorsRetryAfter(t *testing.T) {
	svc := admissionService(t, 1)
	if _, _, err := svc.open("a", testParams(1)); err != nil {
		t.Fatalf("open: %v", err)
	}
	holdSlots(t, svc)

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var slept []time.Duration
	cfg := edge.DefaultClientConfig()
	cfg.MaxRetries = 2
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 10 * time.Second
	cfg.Sleep = func(d time.Duration) { slept = append(slept, d) }
	ec, err := edge.NewClientWithConfig(ts.URL, 4, cfg)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	_, err = suggestClient(t, ec).Suggest(context.Background())
	if code, ok := edge.StatusCode(err); !ok || code != 503 {
		t.Fatalf("suggest = %v, want terminal 503", err)
	}
	if len(slept) != cfg.MaxRetries {
		t.Fatalf("client slept %d times, want %d", len(slept), cfg.MaxRetries)
	}
	for i, d := range slept {
		if d != retryAfterSec*time.Second {
			t.Fatalf("backoff %d = %v, want the Retry-After hint %v (computed exponential "+
				"delay from a %v base must be overridden)", i, d, retryAfterSec*time.Second, cfg.BackoffBase)
		}
	}
}

// TestBreakerOpensOnSustainedRejects checks the interaction between the
// admission controller and the client's circuit breaker: enough consecutive
// 503 rejections open the circuit, after which calls fail fast with
// ErrUnavailable without reaching the server.
func TestBreakerOpensOnSustainedRejects(t *testing.T) {
	svc := admissionService(t, 1)
	if _, _, err := svc.open("a", testParams(1)); err != nil {
		t.Fatalf("open: %v", err)
	}
	holdSlots(t, svc)

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const threshold = 3
	cfg := edge.DefaultClientConfig()
	cfg.MaxRetries = 0
	cfg.BreakerFailureThreshold = threshold
	cfg.Sleep = func(time.Duration) {}
	ec, err := edge.NewClientWithConfig(ts.URL, 4, cfg)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	ctx := context.Background()
	sc := suggestClient(t, ec)
	for i := 0; i < threshold; i++ {
		_, err := sc.Suggest(ctx)
		if code, ok := edge.StatusCode(err); !ok || code != 503 {
			t.Fatalf("reject %d = %v, want 503", i, err)
		}
	}
	if ec.Available() {
		t.Fatalf("circuit still closed after %d consecutive rejections", threshold)
	}
	_, err = sc.Suggest(ctx)
	if !errors.Is(err, edge.ErrUnavailable) {
		t.Fatalf("call with open circuit = %v, want ErrUnavailable", err)
	}
}
