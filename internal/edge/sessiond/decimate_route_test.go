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

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
	"github.com/mar-hbo/hbo/internal/mesh"
)

// The decimate route runs on the serving goroutine, with no wrapper such as
// http.TimeoutHandler. These tests pin what that must keep: a panicking
// Decimator loses its connection without taking the server down, and a
// cache hit writes the cached payload with no copy and a bounded number of
// allocations. TestSessionRoutesRejectOversizeBody pins the body cap (413).

// routeDecimator returns one fixed mesh. Objects named "bomb" panic.
type routeDecimator struct {
	m *mesh.Mesh
}

func (d *routeDecimator) Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	if object == "bomb" {
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
	dec := &routeDecimator{m: m}
	svc, err := New(DefaultConfig(), dec)
	if err != nil {
		t.Fatal(err)
	}
	return svc, dec
}

// routeClient opens a session through a client that makes one attempt per
// call.
func routeClient(t *testing.T, base, id string) *Client {
	t.Helper()
	cfg := edge.DefaultClientConfig()
	cfg.MaxRetries = 0
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

// maxHitAllocs bounds the allocations of one cache hit through the route's
// handler: the body cap, the JSON decode, the session lookup and the
// response headers, 14 with Go 1.24. Handing the hit to a helper goroutine
// with a result channel and a timer, instead of serving it on the one
// net/http runs the handler on, adds 6 and fails the bound.
const maxHitAllocs = 16

// TestDecimateHitAllocs counts the allocations of cache hits through the
// route's handler, with requests and the writer built outside the count.
func TestDecimateHitAllocs(t *testing.T) {
	svc, _ := newRouteService(t)
	if _, _, err := svc.open("hits", testParams(1)); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	body := []byte(`{"id":"hits","object":"apricot","ratio":0.5}`)
	const runs = 200
	reqs := make([]*http.Request, runs+2) // +1 miss, +1 AllocsPerRun warm-up
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/session/decimate", bytes.NewReader(body))
	}
	w := &discardWriter{h: http.Header{}}
	next := 0
	serve := func() {
		w.status = 0
		h.ServeHTTP(w, reqs[next])
		next++
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	serve() // the miss that fills the cache
	perHit := testing.AllocsPerRun(runs, serve)
	if perHit > maxHitAllocs {
		t.Fatalf("a cache hit allocates %.1f times, want at most %d", perHit, maxHitAllocs)
	}
}
