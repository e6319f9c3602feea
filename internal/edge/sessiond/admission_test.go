package sessiond

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
)

// stalledService builds a Service whose shard workers are never started, so
// enqueued suggests sit in the queue forever — the deterministic way to
// exercise the admission controller without racing a real worker.
func stalledService(t *testing.T, queueBound, retryAfterSec int) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.QueueBound = queueBound
	cfg.RetryAfterSec = retryAfterSec
	if err := cfg.validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	return &Service{
		cfg: cfg,
		shards: []*shard{{
			sessions: make(map[string]*session),
			queue:    make(chan *suggestJob, cfg.QueueBound),
		}},
	}
}

// TestAdmissionQueueBound checks, across bounds, that exactly QueueBound
// suggests are admitted and the next is rejected.
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
			svc := stalledService(t, tc.bound, 1)
			sess, _, err := svc.open("a", testParams(1))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for i := 0; i < tc.bound; i++ {
				job := &suggestJob{sess: sess, reply: make(chan suggestResult, 1)}
				if !svc.enqueueSuggest(sess, job) {
					t.Fatalf("enqueue %d rejected below the bound %d", i, tc.bound)
				}
			}
			job := &suggestJob{sess: sess, reply: make(chan suggestResult, 1)}
			if svc.enqueueSuggest(sess, job) {
				t.Fatalf("enqueue beyond bound %d admitted", tc.bound)
			}
		})
	}
}

// fillQueue saturates the single shard's suggest queue.
func fillQueue(t *testing.T, svc *Service, sess *session) {
	t.Helper()
	for i := 0; i < svc.cfg.QueueBound; i++ {
		if !svc.enqueueSuggest(sess, &suggestJob{sess: sess, reply: make(chan suggestResult, 1)}) {
			t.Fatalf("queue filled early at %d of %d", i, svc.cfg.QueueBound)
		}
	}
}

// suggestClient builds a session client for the stalled service's session
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
// the configured Retry-After hint in whole seconds, which the session client
// surfaces as a typed 503.
func TestAdmissionRejectHTTP(t *testing.T) {
	const retryAfterSec = 3
	svc := stalledService(t, 2, retryAfterSec)
	sess, _, err := svc.open("a", testParams(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillQueue(t, svc, sess)

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
	_, err = suggestClient(t, ec).Suggest(context.Background())
	if err == nil {
		t.Fatal("suggest against a full queue succeeded, want 503")
	}
	code, ok := edge.StatusCode(err)
	if !ok || code != 503 {
		t.Fatalf("suggest error = %v, want status 503", err)
	}
	if svc.metRejects != nil {
		t.Fatal("sanity: no registry attached, counters must be nil")
	}
}

// TestClientHonorsRetryAfter checks that the edge client's retry loop
// stretches its backoff to the admission controller's Retry-After hint when
// the hint exceeds the computed exponential delay.
func TestClientHonorsRetryAfter(t *testing.T) {
	const retryAfterSec = 2
	svc := stalledService(t, 1, retryAfterSec)
	sess, _, err := svc.open("a", testParams(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillQueue(t, svc, sess)

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
	svc := stalledService(t, 1, 1)
	sess, _, err := svc.open("a", testParams(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillQueue(t, svc, sess)

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
