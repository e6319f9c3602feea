package edge

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/faults"
)

// testClientConfig returns a config with no real sleeping and tight
// timeouts so fault-path tests run instantly.
func testClientConfig() ClientConfig {
	cfg := DefaultClientConfig()
	cfg.Timeout = 2 * time.Second
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 4 * time.Millisecond
	cfg.Sleep = func(time.Duration) {}
	return cfg
}

// echoMsg is the stub route's request and response body.
type echoMsg struct {
	N int `json:"n"`
}

// newStubServer serves POST /echo, which answers a JSON body with the same
// body; every other route is the mux's 404.
func newStubServer() *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		var m echoMsg
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(m)
	})
	return httptest.NewServer(mux)
}

// postJSON posts req as JSON through Post and decodes a 200 body into
// resp. The body must be exactly one JSON document: trailing data means a
// corrupted or concatenated payload, which must not be trusted. JSON
// decoding copies whatever it keeps, so resp never aliases the body Post
// reuses.
func postJSON(ctx context.Context, c *Client, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.Post(ctx, path, "application/json", body, func(b []byte) error {
		dec := json.NewDecoder(bytes.NewReader(b))
		if err := dec.Decode(resp); err != nil {
			return err
		}
		if _, err := dec.Token(); err != io.EOF {
			return errors.New("trailing data after JSON response")
		}
		return nil
	})
}

// echo posts n to the stub route and checks the reply.
func echo(ctx context.Context, c *Client, n int) error {
	var resp echoMsg
	if err := postJSON(ctx, c, "/echo", echoMsg{N: n}, &resp); err != nil {
		return err
	}
	if resp.N != n {
		return errors.New("echo returned the wrong body")
	}
	return nil
}

func newFaultyPair(t *testing.T, plan faults.Plan, seed uint64, mut func(*ClientConfig)) (*Client, *faults.Transport, func()) {
	t.Helper()
	ts := newStubServer()
	tr := faults.NewTransport(nil, seed, plan)
	tr.SetSleep(func(time.Duration) {})
	cfg := testClientConfig()
	cfg.Transport = tr
	if mut != nil {
		mut(&cfg)
	}
	client, err := NewClientWithConfig(ts.URL, 0, cfg)
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	return client, tr, ts.Close
}

// newStubClient builds a client against a handler with the given config
// tweaks.
func newStubClient(t *testing.T, h http.Handler, mut func(*ClientConfig)) (*Client, func()) {
	t.Helper()
	ts := httptest.NewServer(h)
	cfg := testClientConfig()
	mut(&cfg)
	client, err := NewClientWithConfig(ts.URL, 0, cfg)
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	return client, ts.Close
}

func TestRetryRecoversFromTransientDrops(t *testing.T) {
	// The first two requests drop; the retry loop must ride it out.
	client, tr, closeFn := newFaultyPair(t, faults.Plan{Flaps: []faults.Window{{From: 0, To: 2}}}, 1, nil)
	defer closeFn()
	if err := echo(context.Background(), client, 7); err != nil {
		t.Fatalf("post through transient drops: %v", err)
	}
	if r := client.Retries(); r != 2 {
		t.Fatalf("retries = %d, want 2", r)
	}
	if st := tr.Stats(); st.Drops != 2 || st.Passed != 1 {
		t.Fatalf("injector stats = %+v", st)
	}
}

func TestRetryRecoversFrom5xxBurst(t *testing.T) {
	ts := newStubServer()
	defer ts.Close()
	// A two-request 502 burst, then clean.
	rt := &scriptedRT{failures: 2, code: http.StatusBadGateway}
	cfg := testClientConfig()
	cfg.Transport = rt
	client, err := NewClientWithConfig(ts.URL, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := echo(context.Background(), client, 7); err != nil {
		t.Fatalf("post through 5xx burst: %v", err)
	}
	if client.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", client.Retries())
	}
	st := client.BreakerStats()
	if st.Failures != 2 || st.Successes != 1 || st.State != BreakerClosed {
		t.Fatalf("breaker stats = %+v", st)
	}
}

// scriptedRT fails the first N requests with an HTTP status (0 = drop the
// connection), optionally mangles bodies, then passes through.
type scriptedRT struct {
	mu       sync.Mutex
	seen     int
	failures int
	code     int
	mangle   func([]byte) []byte
}

func (s *scriptedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	n := s.seen
	s.seen++
	s.mu.Unlock()
	if n < s.failures {
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			_ = req.Body.Close()
		}
		if s.code == 0 {
			return nil, errors.New("scripted connection failure")
		}
		return &http.Response{
			Status:     http.StatusText(s.code),
			StatusCode: s.code,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{},
			Body:    io.NopCloser(strings.NewReader("scripted failure")),
			Request: req,
		}, nil
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || s.mangle == nil {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = io.NopCloser(strings.NewReader(string(s.mangle(body))))
	resp.Header.Del("Content-Length")
	resp.ContentLength = -1
	return resp, nil
}

func TestMalformedJSONRetriedThenFails(t *testing.T) {
	ts := newStubServer()
	defer ts.Close()
	// Every response is truncated mid-document: retries burn out and the
	// call reports a decode failure rather than hanging or panicking.
	rt := &scriptedRT{mangle: func(b []byte) []byte { return b[:len(b)/2] }}
	cfg := testClientConfig()
	cfg.Transport = rt
	cfg.MaxRetries = 2
	client, err := NewClientWithConfig(ts.URL, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = echo(context.Background(), client, 7)
	if err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Fatalf("truncated responses: err = %v", err)
	}
	if rt.seen != 3 {
		t.Fatalf("attempts = %d, want 1 + 2 retries", rt.seen)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	client, closeFn := newStubClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"n":7}{"sneaky":1}`))
	}), func(cfg *ClientConfig) { cfg.MaxRetries = 0 })
	defer closeFn()
	err := echo(context.Background(), client, 7)
	if err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing garbage: err = %v", err)
	}
}

// TestPostReusedBodyIsExact checks that decode sees exactly each
// response's bytes while Post reuses its read buffers: bodies of declared
// and undeclared (chunked) length, each larger or smaller than the last.
func TestPostReusedBodyIsExact(t *testing.T) {
	body := func(n int) []byte { return bytes.Repeat([]byte("0123456789abcdef"), n/16+1)[:n] }
	client, closeFn := newStubClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			N       int  `json:"n"`
			Chunked bool `json:"chunked"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Chunked {
			w.(http.Flusher).Flush() // no Content-Length: the client reads to EOF
		} else {
			w.Header().Set("Content-Length", strconv.Itoa(req.N))
		}
		_, _ = w.Write(body(req.N))
	}), func(cfg *ClientConfig) { cfg.MaxRetries = 0 })
	defer closeFn()
	for _, tc := range []struct {
		n       int
		chunked bool
	}{{5000, false}, {100, false}, {3000, true}, {10, true}, {9000, true}, {7, false}, {0, false}} {
		req := []byte(fmt.Sprintf(`{"n":%d,"chunked":%t}`, tc.n, tc.chunked))
		err := client.Post(context.Background(), "/body", "application/json", req, func(b []byte) error {
			if !bytes.Equal(b, body(tc.n)) {
				return fmt.Errorf("got %d bytes, want the %d sent", len(b), tc.n)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%d bytes, chunked %t: %v", tc.n, tc.chunked, err)
		}
	}
}

func TestOversizeResponseRejected(t *testing.T) {
	client, closeFn := newStubClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"pad":"` + strings.Repeat("x", 4096) + `"}`))
	}), func(cfg *ClientConfig) {
		cfg.MaxRetries = 0
		cfg.MaxResponseBytes = 1024
	})
	defer closeFn()
	err := echo(context.Background(), client, 7)
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversize response: err = %v", err)
	}
}

func TestClientErrorsNotRetried(t *testing.T) {
	client, tr, closeFn := newFaultyPair(t, faults.Plan{}, 1, nil)
	defer closeFn()
	var resp echoMsg
	err := postJSON(context.Background(), client, "/missing", echoMsg{N: 7}, &resp)
	if code, ok := StatusCode(err); !ok || code != http.StatusNotFound {
		t.Fatalf("unknown route: err = %v", err)
	}
	if tr.Requests() != 1 {
		t.Fatalf("404 was retried: %d requests", tr.Requests())
	}
}

// TestPostDecodeStatusError checks that a decoder reporting a typed status
// (how the session client surfaces a server's Error frame inside a 200
// body) is treated exactly like that HTTP status: a 4xx fails at once with
// its code, and a 503 is retried honoring its Retry-After hint.
func TestPostDecodeStatusError(t *testing.T) {
	var slept []time.Duration
	client, tr, closeFn := newFaultyPair(t, faults.Plan{}, 1, func(cfg *ClientConfig) {
		cfg.MaxRetries = 2
		cfg.Sleep = func(d time.Duration) { slept = append(slept, d) }
	})
	defer closeFn()
	body := []byte(`{"n":1}`)
	notFound := func([]byte) error { return NewStatusError(http.StatusNotFound, "gone", 0) }
	err := client.Post(context.Background(), "/echo", "application/json", body, notFound)
	if code, ok := StatusCode(err); !ok || code != http.StatusNotFound {
		t.Fatalf("decoded 404 = %v, want status 404", err)
	}
	if tr.Requests() != 1 {
		t.Fatalf("decoded 404 was retried: %d requests", tr.Requests())
	}
	busy := func([]byte) error { return NewStatusError(http.StatusServiceUnavailable, "full", 3*time.Second) }
	err = client.Post(context.Background(), "/echo", "application/json", body, busy)
	if code, ok := StatusCode(err); !ok || code != http.StatusServiceUnavailable {
		t.Fatalf("decoded 503 = %v, want status 503", err)
	}
	if tr.Requests() != 4 {
		t.Fatalf("decoded 503 made %d requests in all, want 1 + 3 attempts", tr.Requests())
	}
	if len(slept) != 2 || slept[0] != 3*time.Second || slept[1] != 3*time.Second {
		t.Fatalf("backoffs = %v, want the 3s Retry-After hint twice", slept)
	}
}

func TestBreakerOpensAndShortCircuits(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	client, tr, closeFn := newFaultyPair(t, faults.Plan{DropRate: 1}, 1, func(cfg *ClientConfig) {
		cfg.MaxRetries = 1
		cfg.BreakerFailureThreshold = 4
		cfg.Clock = clk.now
	})
	defer closeFn()
	ctx := context.Background()
	// Two calls × two attempts: four consecutive failures open the circuit.
	for i := 0; i < 2; i++ {
		if err := echo(ctx, client, i); err == nil {
			t.Fatal("call through dead link succeeded")
		}
	}
	if st := client.BreakerStats(); st.State != BreakerOpen || st.Opens != 1 {
		t.Fatalf("breaker = %+v, want open", st)
	}
	before := tr.Requests()
	err := echo(ctx, client, 2)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("short-circuit error = %v, want ErrUnavailable", err)
	}
	if tr.Requests() != before {
		t.Fatal("short-circuited call still hit the network")
	}
	if client.Available() {
		t.Fatal("Available() true while breaker open")
	}
}

func TestBreakerHalfOpenRecloses(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	// Exactly the first two requests fail; afterwards the link is clean.
	client, _, closeFn := newFaultyPair(t, faults.Plan{Flaps: []faults.Window{{From: 0, To: 2}}}, 1, func(cfg *ClientConfig) {
		cfg.MaxRetries = 0
		cfg.BreakerFailureThreshold = 2
		cfg.BreakerSuccessThreshold = 2
		cfg.Clock = clk.now
	})
	defer closeFn()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := echo(ctx, client, i); err == nil {
			t.Fatal("call through flap succeeded")
		}
	}
	if st := client.BreakerStats(); st.State != BreakerOpen {
		t.Fatalf("breaker = %+v, want open", st)
	}
	// Probes flow once the open window elapses; two successes re-close.
	clk.advance(client.cfg.BreakerOpenFor)
	if !client.Available() {
		t.Fatal("Available() false after open window")
	}
	if err := echo(ctx, client, 2); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if st := client.BreakerStats(); st.State != BreakerHalfOpen {
		t.Fatalf("breaker after 1 probe = %+v, want half-open", st)
	}
	if err := echo(ctx, client, 3); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if st := client.BreakerStats(); st.State != BreakerClosed {
		t.Fatalf("breaker after recovery = %+v, want closed", st)
	}
}

func TestClientConcurrentCallers(t *testing.T) {
	// One client shared by goroutines: counters, jitter stream, and breaker
	// must be race-free (run under -race).
	client, _, closeFn := newFaultyPair(t, faults.Plan{DropRate: 0.2}, 5, func(cfg *ClientConfig) {
		cfg.MaxRetries = 2
		cfg.BreakerFailureThreshold = 50 // keep the circuit closed for the hammer
	})
	defer closeFn()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				_ = echo(context.Background(), client, w*6+i)
			}
		}()
	}
	wg.Wait()
}

func TestPostJSONContextCancellation(t *testing.T) {
	client, tr, closeFn := newFaultyPair(t, faults.Plan{DropRate: 1}, 1, func(cfg *ClientConfig) {
		cfg.MaxRetries = 10
	})
	defer closeFn()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := echo(ctx, client, 7); err == nil {
		t.Fatal("cancelled context succeeded")
	}
	// The retry loop must stop on cancellation, not burn all 10 retries.
	if tr.Requests() > 2 {
		t.Fatalf("cancelled call made %d requests", tr.Requests())
	}
}
