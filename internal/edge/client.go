package edge

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/sim"
)

// ClientConfig tunes the client's fault-tolerance behaviour: per-attempt
// timeouts, capped exponential backoff with deterministic jitter for the
// (idempotent) POSTs, the circuit breaker, and response-size bounds.
type ClientConfig struct {
	// Timeout bounds each individual HTTP attempt.
	Timeout time.Duration
	// MaxRetries is how many times a failed attempt is retried (so a call
	// makes at most 1+MaxRetries attempts). Callers only route idempotent
	// operations through the client, so every one is safe to retry. 0
	// disables retries — the fail-stop client the chaos bench compares
	// against.
	MaxRetries int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts: base·2^(attempt−1), capped, with up to 50%
	// deterministic jitter subtracted.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the backoff jitter stream, keeping retry timing
	// reproducible under the fault injector.
	JitterSeed uint64
	// MaxResponseBytes bounds how much of a response body is read; larger
	// responses are rejected (a mesh at Table II sizes is well under 8 MiB).
	MaxResponseBytes int64
	// MaxIdleConnsPerHost sizes the keep-alive pool of the client's default
	// transport. The stdlib default of 2 throttles a multi-session load
	// generator into redialing almost every request; DefaultClientConfig
	// sets a pool wide enough for a full 256-session fleet. Ignored when
	// Transport is set — an explicit transport owns its own pooling.
	MaxIdleConnsPerHost int
	// BreakerFailureThreshold consecutive failed attempts open the circuit;
	// after BreakerOpenFor it half-opens, and BreakerSuccessThreshold
	// consecutive successful probes close it again.
	BreakerFailureThreshold int
	BreakerSuccessThreshold int
	BreakerOpenFor          time.Duration
	// Transport overrides the HTTP transport (fault injection, tests).
	Transport http.RoundTripper
	// Clock overrides time.Now for breaker timing (tests).
	Clock func() time.Time
	// Sleep overrides the backoff sleeper (tests).
	Sleep func(time.Duration)
}

// DefaultClientConfig returns production-shaped defaults: 5 s attempts, 3
// retries starting at 50 ms backoff capped at 2 s, an 8 MiB response bound,
// and a breaker that opens after 5 consecutive failures for 2 s.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		Timeout:                 5 * time.Second,
		MaxRetries:              3,
		BackoffBase:             50 * time.Millisecond,
		BackoffMax:              2 * time.Second,
		JitterSeed:              1,
		MaxResponseBytes:        8 << 20,
		MaxIdleConnsPerHost:     256,
		BreakerFailureThreshold: 5,
		BreakerSuccessThreshold: 2,
		BreakerOpenFor:          2 * time.Second,
	}
}

// NewPooledTransport builds the client's default HTTP transport: the
// stdlib defaults with a keep-alive pool actually sized for concurrent
// sessions (MaxIdleConnsPerHost idle conns per host instead of the stdlib
// 2, no global idle cap). Exposed so tests and sibling transports can
// instrument the dialer while keeping identical pooling behaviour.
func NewPooledTransport(maxIdlePerHost int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	if maxIdlePerHost < 1 {
		maxIdlePerHost = 256
	}
	t.MaxIdleConns = 0 // no global cap; the per-host cap governs
	t.MaxIdleConnsPerHost = maxIdlePerHost
	t.IdleConnTimeout = 90 * time.Second
	return t
}

func (cfg ClientConfig) validate() error {
	if cfg.Timeout <= 0 {
		return fmt.Errorf("edge: non-positive timeout %v", cfg.Timeout)
	}
	if cfg.MaxRetries < 0 {
		return fmt.Errorf("edge: negative retry count %d", cfg.MaxRetries)
	}
	if cfg.BackoffBase <= 0 || cfg.BackoffMax < cfg.BackoffBase {
		return fmt.Errorf("edge: invalid backoff range [%v, %v]", cfg.BackoffBase, cfg.BackoffMax)
	}
	if cfg.MaxResponseBytes < 1024 {
		return fmt.Errorf("edge: response bound %d too small", cfg.MaxResponseBytes)
	}
	if cfg.BreakerFailureThreshold < 1 || cfg.BreakerSuccessThreshold < 1 {
		return fmt.Errorf("edge: breaker thresholds must be >= 1")
	}
	if cfg.BreakerOpenFor <= 0 {
		return fmt.Errorf("edge: non-positive breaker open window %v", cfg.BreakerOpenFor)
	}
	return nil
}

// Client is the device side's fault-tolerant link to the edge: every call
// runs through Execute's retry, backoff and circuit-breaker stack. The
// session client (package sessiond) builds its routes on it. Safe for
// concurrent use; the circuit breaker is shared across goroutines so every
// caller sees the same view of the link's health.
type Client struct {
	base string
	http *http.Client
	cfg  ClientConfig

	breaker *breaker
	sleep   func(time.Duration)

	mu     sync.Mutex
	jitter *sim.RNG
	// retries counts attempts beyond each call's first.
	retries int

	// Observability instruments; nil (no-op) unless SetObserver is called.
	metCalls           *obs.Counter
	metAttempts        *obs.Counter
	metAttemptFailures *obs.Counter
	metRetries         *obs.Counter
	metShortCircuits   *obs.Counter
	metBreakerState    *obs.Gauge
}

// SetObserver attaches a metrics registry: per-call and per-attempt outcome
// counters, retry and short-circuit counts, and a breaker state gauge plus
// transition events (wall-clock timestamps — this runs in real processes,
// not the simulator). Call before the client is shared across goroutines;
// passing nil detaches.
func (c *Client) SetObserver(reg *obs.Registry) {
	c.metCalls = reg.Counter("edge.client.calls")
	c.metAttempts = reg.Counter("edge.client.attempts")
	c.metAttemptFailures = reg.Counter("edge.client.attempt_failures")
	c.metRetries = reg.Counter("edge.client.retries")
	c.metShortCircuits = reg.Counter("edge.client.short_circuits")
	c.metBreakerState = reg.Gauge("edge.client.breaker_state")
	if reg == nil {
		c.breaker.setTransitionHook(nil)
		return
	}
	gauge := c.metBreakerState
	clock := c.breaker.now
	c.breaker.setTransitionHook(func(from, to BreakerState) {
		gauge.Set(float64(to))
		reg.Emit(obs.Event{
			TimeMS: float64(clock().UnixMilli()),
			Kind:   "edge.breaker.transition",
			Detail: from.String() + "->" + to.String(),
			Value:  float64(to),
		})
	})
}

// NewClient builds a client for the server at base URL (no trailing slash)
// with default fault-tolerance settings.
func NewClient(base string) (*Client, error) {
	return NewClientWithConfig(base, 0, DefaultClientConfig())
}

// NewClientWithConfig builds a client with explicit fault-tolerance
// settings. The int argument is unused; it once sized a client-side mesh
// cache and stays so existing callers keep compiling.
func NewClientWithConfig(base string, _ int, cfg ClientConfig) (*Client, error) {
	if base == "" {
		return nil, fmt.Errorf("edge: empty base URL")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	transport := cfg.Transport
	if transport == nil {
		transport = NewPooledTransport(cfg.MaxIdleConnsPerHost)
	}
	return &Client{
		base:    base,
		http:    &http.Client{Transport: transport},
		cfg:     cfg,
		breaker: newBreaker(cfg.BreakerFailureThreshold, cfg.BreakerSuccessThreshold, cfg.BreakerOpenFor, cfg.Clock),
		sleep:   sleep,
		jitter:  sim.NewRNG(cfg.JitterSeed),
	}, nil
}

// Retries returns how many retry attempts (beyond each call's first) the
// client has made.
func (c *Client) Retries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}

// BreakerStats returns the circuit breaker's state and counters.
func (c *Client) BreakerStats() BreakerStats { return c.breaker.snapshot() }

// Available reports whether calls would currently be attempted: true while
// the breaker is closed, half-open, or open past its window (a probe would
// flow). Degradation logic uses this to route work to the local fallback
// without paying a round of short-circuit errors.
func (c *Client) Available() bool { return c.breaker.ready() }

// statusError is a non-2xx response, kept typed so the retry policy can
// distinguish server-side bursts (5xx, retryable) from rejections (4xx),
// and so an admission controller's Retry-After hint survives into the
// backoff computation.
type statusError struct {
	status string
	code   int
	msg    string
	// retryAfter is the server's Retry-After hint (zero when absent).
	retryAfter time.Duration
}

func (e *statusError) Error() string {
	return fmt.Sprintf("returned %s: %s", e.status, e.msg)
}

// NewStatusError builds the same typed error a non-2xx response produces.
// The session client maps its Error frames through this, so server
// rejections carry one error taxonomy whatever the carrier: StatusCode
// extracts the code, the retry policy treats 5xx as transient, and a
// Retry-After hint survives into the backoff computation.
func NewStatusError(code int, msg string, retryAfter time.Duration) error {
	return &statusError{
		status:     fmt.Sprintf("%d %s", code, http.StatusText(code)),
		code:       code,
		msg:        msg,
		retryAfter: retryAfter,
	}
}

// PermanentError marks an error as categorically non-retryable, whatever
// its underlying cause. The stream client uses it for calls issued after
// Close: retrying cannot help, and no cooldown will either.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return e.Err.Error() }
func (e *PermanentError) Unwrap() error { return e.Err }

// Permanent wraps err so the retry policy fails fast on it.
func Permanent(err error) error { return &PermanentError{Err: err} }

// StatusCode extracts the HTTP status code buried in a client call error.
// ok is false for transport-level failures (drops, timeouts, breaker short
// circuits) that never produced a response. Callers use it to react to
// typed rejections — e.g. a 404 from the session service means the session
// was evicted and must be re-opened.
func StatusCode(err error) (code int, ok bool) {
	var se *statusError
	if errors.As(err, &se) {
		return se.code, true
	}
	return 0, false
}

// retryable reports whether an attempt error is worth retrying: transport
// errors, timeouts, 5xx responses, and mangled response bodies are
// transient link faults; 4xx rejections and explicitly Permanent errors are
// not.
func retryable(err error) bool {
	var pe *PermanentError
	if errors.As(err, &pe) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	return true
}

// Post sends one idempotent POST of a pre-encoded body through the
// client's full fault-tolerance stack: per-attempt timeouts, retries with
// backoff and Retry-After honoring, and the circuit breaker. A 200
// response's whole bounded body is handed to decode. A decode error is a
// mangled response, retried as a transient link fault, so decode must be
// safe to call again. The body is valid only while decode runs: it is read
// into a buffer the client reuses for later responses, so decode must copy
// or convert whatever it keeps and retain no slice of it. A decode error
// carrying a status (NewStatusError) is treated exactly like a response
// with that HTTP status. Every session route shares one link-health view
// through this call.
func (c *Client) Post(ctx context.Context, path, contentType string, body []byte, decode func(body []byte) error) error {
	return c.Execute(ctx, path, func(ctx context.Context) error {
		return c.attempt(ctx, path, contentType, body, decode)
	})
}

// Execute runs one idempotent operation under the client's full
// fault-tolerance stack: circuit-breaker admission, capped exponential
// backoff with deterministic jitter between attempts, Retry-After honoring,
// and breaker accounting of every outcome. It is the transport-agnostic
// core of Post, exposed so the multiplexed session stream shares the same
// link-health view — a stream reconnect and a retried POST are the same
// event to the breaker. op must be safe to call again after a failure.
// label names the operation in errors (Post passes its route).
func (c *Client) Execute(ctx context.Context, label string, op func(ctx context.Context) error) error {
	c.metCalls.Inc()
	if !c.breaker.allow() {
		c.metShortCircuits.Inc()
		return fmt.Errorf("edge: %s: %w", label, ErrUnavailable)
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.retries++
			delay := c.backoffLocked(attempt)
			c.mu.Unlock()
			// An explicit Retry-After from the previous rejection (the
			// session service's admission controller) overrides a shorter
			// computed backoff: the server told us when capacity frees up.
			var se *statusError
			if errors.As(lastErr, &se) && se.retryAfter > delay {
				delay = se.retryAfter
			}
			c.metRetries.Inc()
			if err := c.wait(ctx, delay); err != nil {
				return fmt.Errorf("edge: %s: %w", label, err)
			}
		}
		err := op(ctx)
		c.metAttempts.Inc()
		if err == nil {
			c.breaker.recordSuccess()
			return nil
		}
		c.metAttemptFailures.Inc()
		// A Permanent error is a condition of the call, not of the link
		// (e.g. "this stream client was closed") — failing fast is right,
		// but counting it toward opening the breaker would punish a healthy
		// link for something no retry or cooldown can change.
		var pe *PermanentError
		if !errors.As(err, &pe) {
			c.breaker.recordFailure()
		}
		lastErr = err
		if !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	return fmt.Errorf("edge: %s %w", label, lastErr)
}

// HTTPClient exposes the underlying HTTP client, so sibling transports (the
// multiplexed session stream) ride the same connection pool,
// fault-injection transport, and dialer as Post.
func (c *Client) HTTPClient() *http.Client { return c.http }

// BaseURL returns the server base URL this client was built for.
func (c *Client) BaseURL() string { return c.base }

// AttemptTimeout returns the per-attempt timeout, so sibling transports can
// bound their own attempts identically to Post.
func (c *Client) AttemptTimeout() time.Duration { return c.cfg.Timeout }

// parseRetryAfter reads an integer-seconds Retry-After value (the only form
// this repo's servers emit); anything else maps to zero.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// backoffLocked computes base·2^(attempt−1) capped at BackoffMax, minus up
// to 50% deterministic jitter; callers hold c.mu.
func (c *Client) backoffLocked(attempt int) time.Duration {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	return d - time.Duration(0.5*c.jitter.Float64()*float64(d))
}

// wait sleeps for delay or until ctx is cancelled.
func (c *Client) wait(ctx context.Context, delay time.Duration) error {
	done := ctx.Done()
	if done == nil {
		c.sleep(delay)
		return nil
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-done:
		return ctx.Err()
	}
}

// bodyPool recycles response buffers (*[]byte) across attempts and calls:
// Post's decode retains no part of the body, so a buffer goes back as soon
// as decode returns. Buffers past maxPooledBody are left to the collector,
// so one outsized response does not stay resident.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// attempt runs one HTTP round trip under the per-attempt timeout, reads
// the response body whole under the size bound into a pooled buffer, and
// hands it to decode. The body is read and the connection released before
// decoding starts, and the buffer returns to the pool after decode.
func (c *Client) attempt(ctx context.Context, path, contentType string, body []byte, decode func([]byte) error) error {
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	buf, err := c.roundTrip(ctx, path, contentType, body, *bp)
	if cap(buf) > cap(*bp) && cap(buf) <= maxPooledBody {
		*bp = buf[:0] // keep the grown storage for the next response
	}
	if err != nil {
		return err
	}
	if err := decode(buf); err != nil {
		if _, ok := StatusCode(err); ok {
			return err
		}
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// roundTrip POSTs body and returns a 200 response's body, read into dst's
// storage when it is large enough, or a typed statusError for any other
// status.
func (c *Client) roundTrip(ctx context.Context, path, contentType string, body, dst []byte) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(actx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", contentType)
	httpResp, err := c.http.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(httpResp.Body, 4096))
		_ = httpResp.Body.Close()
	}()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return nil, &statusError{
			status:     httpResp.Status,
			code:       httpResp.StatusCode,
			msg:        string(bytes.TrimSpace(msg)),
			retryAfter: parseRetryAfter(httpResp.Header.Get("Retry-After")),
		}
	}
	return readBody(httpResp, c.cfg.MaxResponseBytes, dst)
}

// readBody reads a response body whole into dst's storage, growing it when
// it is too small, and rejects one over limit bytes. A declared
// Content-Length sizes the read exactly — at most one allocation, no
// doubling growth — and one over the limit fails before any byte is read;
// a body of unknown length falls back to a bounded read that grows dst.
func readBody(resp *http.Response, limit int64, dst []byte) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 {
		if n > limit {
			return nil, fmt.Errorf("response of %d bytes exceeds %d-byte limit", n, limit)
		}
		buf := slices.Grow(dst[:0], int(n))[:n]
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, fmt.Errorf("reading response: %w", err)
		}
		return buf, nil
	}
	b := bytes.NewBuffer(dst[:0])
	if _, err := b.ReadFrom(io.LimitReader(resp.Body, limit+1)); err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if int64(b.Len()) > limit {
		return nil, fmt.Errorf("response exceeds %d-byte limit", limit)
	}
	return b.Bytes(), nil
}
