package sessiond

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
	"github.com/mar-hbo/hbo/internal/faults"
)

// truncateNext cuts the next response body it sees in half once armed — a
// response lost after the server already applied the request.
type truncateNext struct {
	next  http.RoundTripper
	armed atomic.Bool
}

func (t *truncateNext) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err != nil || !t.armed.CompareAndSwap(true, false) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body = body[:len(body)/2]
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestOneShotRetriedObserveAppliedOnce is the double-apply regression on
// the default carrier (no stream attached): an observe whose response is
// truncated after the server applied it is retried once, and the server
// must end up holding exactly one observation. The idempotency index rides
// in the observe frame whichever carrier takes it.
func TestOneShotRetriedObserveAppliedOnce(t *testing.T) {
	svc, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	tr := &truncateNext{next: edge.NewPooledTransport(4)}
	cfg := edge.DefaultClientConfig()
	cfg.Transport = tr
	cfg.Sleep = func(time.Duration) {}
	ec, err := edge.NewClientWithConfig(ts.URL, 0, cfg)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	sc, err := NewClient(ec, "once", 3, 0.1, 7, 5)
	if err != nil {
		t.Fatalf("session client: %v", err)
	}
	ctx := context.Background()
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	point, err := sc.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest: %v", err)
	}
	tr.armed.Store(true)
	if err := sc.ObserveAt(ctx, 0, point, 0.25); err != nil {
		t.Fatalf("observe: %v", err)
	}
	if r := ec.Retries(); r != 1 {
		t.Fatalf("retries = %d, want 1 (the truncated response)", r)
	}
	resp, err := sc.Open(ctx)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	if resp.Observations != 1 {
		t.Fatalf("server holds %d observations after one retried observe, want 1", resp.Observations)
	}
}

// TestBackendFaultsKeepHistoryInSync drives sessiond.Backend through a
// seeded faults.Transport that truncates and corrupts responses. Every
// mangled response is retried, and none may double-apply an observe: at
// every suggest the server's database must hold exactly the client's
// history.
func TestBackendFaultsKeepHistoryInSync(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 1
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	tr := faults.NewTransport(edge.NewPooledTransport(4), 17, faults.Plan{TruncateRate: 0.2, CorruptRate: 0.2})
	ccfg := edge.DefaultClientConfig()
	ccfg.Transport = tr
	ccfg.MaxRetries = 10
	ccfg.BreakerFailureThreshold = 1 << 20
	ccfg.Sleep = func(time.Duration) {}
	ec, err := edge.NewClientWithConfig(ts.URL, 0, ccfg)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	const resources, rmin, seed = 3, 0.1, 23
	sc, err := NewClient(ec, "synced", resources, rmin, seed, 5)
	if err != nil {
		t.Fatalf("session client: %v", err)
	}
	b := NewBackend(context.Background(), sc)
	var points [][]float64
	var costs []float64
	for k := 0; k < 24; k++ {
		p, err := b.BONextPoint(1, points, costs)
		if err != nil {
			t.Fatalf("suggest %d: %v", k, err)
		}
		sess, ok := svc.peek("synced")
		if !ok {
			t.Fatalf("suggest %d: session not live", k)
		}
		if n := sess.observations(); n != len(points) {
			t.Fatalf("suggest %d: server holds %d observations, client history %d", k, n, len(points))
		}
		points = append(points, p)
		costs = append(costs, driveCost(p))
	}
	if st := tr.Stats(); st.Truncated == 0 || st.Corrupted == 0 {
		t.Fatalf("fault plan never fired: %+v", st)
	}
}

// TestDecodeOneFrameCopiesOutOfBody pins decodeOneFrame's side of
// edge.Client.Post's contract: the body is reused for a later response
// once decode returns, so no byte field of the decoded frame may alias it.
func TestDecodeOneFrameCopiesOutOfBody(t *testing.T) {
	body, err := wire.AppendFrame(nil, &wire.Frame{Type: wire.TOpenResp, Seq: 1, Evicted: []byte("victim")})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var f wire.Frame
	if err := decodeOneFrame(body, &f); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range body {
		body[i] = 0xff
	}
	if string(f.Evicted) != "victim" {
		t.Fatalf("Evicted = %q after the body was reused, want %q", f.Evicted, "victim")
	}
}

// TestOpenEvictedOutlivesResponseBody is the end-to-end form over the
// one-shot carrier: an open whose response names the session it evicted
// keeps that name while the same client makes more requests and another
// client's traffic cycles the shared response buffers. Under -race it also
// shows that no response body is read after it was handed back.
func TestOpenEvictedOutlivesResponseBody(t *testing.T) {
	newServer := func(perShard int) *httptest.Server {
		cfg := DefaultConfig()
		cfg.Shards, cfg.SessionsPerShard = 1, perShard
		svc, err := New(cfg, nil)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	newClient := func(ts *httptest.Server, id string) *Client {
		ec, err := edge.NewClient(ts.URL)
		if err != nil {
			t.Fatalf("edge client: %v", err)
		}
		sc, err := NewClient(ec, id, 3, 0.1, 7, 5)
		if err != nil {
			t.Fatalf("session client: %v", err)
		}
		return sc
	}
	ctx := context.Background()
	one := newServer(1)
	if _, err := newClient(one, "victim-session").Open(ctx); err != nil {
		t.Fatalf("open victim: %v", err)
	}

	// Background traffic on another server through the same package-wide
	// buffer pool.
	other := newClient(newServer(4), "bystander")
	if _, err := other.Open(ctx); err != nil {
		t.Fatalf("open bystander: %v", err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := other.Suggest(ctx); err != nil {
				done <- err
				return
			}
		}
	}()
	var bystanderErr error
	stopBystander := sync.OnceFunc(func() { close(stop); bystanderErr = <-done })
	defer stopBystander() // a failed check below must not leave it running

	intruder := newClient(one, "intruder")
	res, err := intruder.Open(ctx)
	if err != nil {
		t.Fatalf("open intruder: %v", err)
	}
	for i := 0; i < 8; i++ {
		point, err := intruder.Suggest(ctx)
		if err != nil {
			t.Fatalf("suggest %d: %v", i, err)
		}
		if err := intruder.ObserveAt(ctx, i, point, 0.5); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	stopBystander()
	if bystanderErr != nil {
		t.Fatalf("bystander suggest: %v", bystanderErr)
	}
	if res.Evicted != "victim-session" {
		t.Fatalf("OpenResponse.Evicted = %q, want %q", res.Evicted, "victim-session")
	}
}
