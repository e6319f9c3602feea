package sessiond

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
	"github.com/mar-hbo/hbo/internal/mesh"
)

// The decimate route bounds itself instead of running behind
// http.TimeoutHandler. These tests pin the properties that wrapper gave it:
// a stuck Decimator costs its request a 503 within handlerTimeout and costs
// nothing after, and a panicking one loses its connection without taking the
// server down. TestSessionRoutesRejectOversizeBody pins the body cap (413).

// routeDecimator returns one fixed mesh. Objects named "stall" block until
// release is closed; objects named "bomb" panic.
type routeDecimator struct {
	m       *mesh.Mesh
	release chan struct{}
}

func (d *routeDecimator) Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	switch object {
	case "stall":
		<-d.release
	case "bomb":
		panic("routeDecimator: bomb")
	}
	return d.m.Clone(), nil
}

func newRouteService(t *testing.T) (*Service, *routeDecimator) {
	t.Helper()
	m, err := mesh.Blob(2000, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	dec := &routeDecimator{m: m, release: make(chan struct{})}
	t.Cleanup(func() { close(dec.release) })
	svc, err := New(DefaultConfig(), dec)
	if err != nil {
		t.Fatal(err)
	}
	return svc, dec
}

// routeClient opens a session through a client that makes one attempt per
// call and gives each attempt routeAttempt before it stops waiting.
func routeClient(t *testing.T, base, id string) *Client {
	t.Helper()
	cfg := edge.DefaultClientConfig()
	cfg.MaxRetries = 0
	cfg.Timeout = routeAttempt
	ec, err := edge.NewClientWithConfig(base, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(1)
	sc, err := NewClient(ec, id, p.resources, p.rmin, p.seed, p.init)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sc
}

// routeAttempt is the client's per-attempt timeout in these tests: an
// answer from a stalled route must come well within it.
const routeAttempt = 5 * time.Second

// TestDecimateRouteTimeout stalls the Decimator: the fetch must come back
// 503 while the decimation is still stalled, and the same client's next
// fetch must then succeed, because the route released the connection and
// the session lock.
func TestDecimateRouteTimeout(t *testing.T) {
	defer func(d time.Duration) { handlerTimeout = d }(handlerTimeout)
	handlerTimeout = 50 * time.Millisecond
	svc, dec := newRouteService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	// A stall still pending when the test fails would keep ts.Close
	// waiting on its request; release it first.
	defer func() {
		select {
		case dec.release <- struct{}{}:
		default:
		}
	}()
	sc := routeClient(t, ts.URL, "stuck")
	ctx := context.Background()

	// The stalled Decimator returns only once released below, so a 503
	// here, and not the client's own attempt timeout, is the route's bound
	// firing.
	_, err := sc.Decimate(ctx, "stall", 0.5, false)
	if code, ok := edge.StatusCode(err); !ok || code != http.StatusServiceUnavailable {
		t.Fatalf("stalled fetch = %v, want 503 within the %v attempt timeout", err, routeAttempt)
	}
	if !strings.Contains(err.Error(), "sessiond: handler timeout") {
		t.Fatalf("stalled fetch error %q lacks the timeout message", err)
	}
	// The stalled decimation still holds the session's mesh lock; releasing
	// it lets the background call finish, and the next fetch must succeed.
	dec.release <- struct{}{}
	m, err := sc.Decimate(ctx, "apricot", 0.5, false)
	if err != nil {
		t.Fatalf("fetch after the timeout: %v", err)
	}
	if m.TriangleCount() != dec.m.TriangleCount() {
		t.Fatalf("fetch after the timeout: %d triangles, want %d", m.TriangleCount(), dec.m.TriangleCount())
	}
}

// TestDecimateRoutePanic makes the Decimator panic. The panic must reach
// net/http on the serving goroutine, which drops that connection, and the
// server must go on serving the same session and others.
func TestDecimateRoutePanic(t *testing.T) {
	svc, _ := newRouteService(t)
	ts := httptest.NewUnstartedServer(svc.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // net/http logs the recovered panic
	ts.Start()
	defer ts.Close()
	victim := routeClient(t, ts.URL, "victim")
	bystander := routeClient(t, ts.URL, "bystander")
	ctx := context.Background()

	resp, err := http.Post(ts.URL+"/session/decimate", "application/json",
		strings.NewReader(`{"id":"victim","object":"bomb","ratio":0.5}`))
	if err == nil {
		_ = resp.Body.Close()
		t.Fatalf("panicking fetch answered %s, want the connection dropped", resp.Status)
	}
	for _, sc := range []*Client{bystander, victim} {
		if _, err := sc.Decimate(ctx, "apricot", 0.5, false); err != nil {
			t.Fatalf("%s: fetch after a panic: %v", sc.id, err)
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status and size, so
// measuring the handler's allocations does not count a recorder's buffer.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header    { return w.h }
func (w *discardWriter) WriteHeader(status int) { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// TestDecimateHitNoPayloadCopy serves cache hits through the route's
// handler and bounds the bytes each allocates: a hit writes the cached
// payload once, so nothing payload-sized may be allocated per request (a
// buffering wrapper such as http.TimeoutHandler copies all of it).
func TestDecimateHitNoPayloadCopy(t *testing.T) {
	svc, dec := newRouteService(t)
	if _, _, err := svc.open("hits", testParams(1)); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	body := []byte(`{"id":"hits","object":"apricot","ratio":0.5}`)
	const n = 200
	reqs := make([]*http.Request, n+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/session/decimate", bytes.NewReader(body))
	}
	serve := func(r *http.Request) *discardWriter {
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
		return w
	}
	payload := serve(reqs[n]).n // the miss that fills the cache
	if want := wire.MeshSize(dec.m); payload != want {
		t.Fatalf("payload of %d bytes, want %d", payload, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs[:n] {
		serve(r)
	}
	runtime.ReadMemStats(&after)
	if perHit := (after.TotalAlloc - before.TotalAlloc) / n; perHit > uint64(payload)/4 {
		t.Fatalf("a cache hit allocates %d bytes for a %d-byte payload, want under %d", perHit, payload, payload/4)
	}
}
