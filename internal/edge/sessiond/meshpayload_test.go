package sessiond_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/render"
)

// goldenDecimator serves the meshes TestDecimateGolden pins: every SC1+SC2
// catalog object through an edge.Server, plus the procedural generators'
// canonical shapes decimated directly on the precise path. Called directly
// it is the reference a fetched mesh must match bit for bit.
type goldenDecimator struct {
	srv   *edge.Server
	procs map[string]*mesh.Mesh
	names []string
}

func newGoldenDecimator(t *testing.T) *goldenDecimator {
	t.Helper()
	var specs []render.ObjectSpec
	d := &goldenDecimator{procs: map[string]*mesh.Mesh{}}
	for _, c := range append(render.SC1(), render.SC2()...) {
		specs = append(specs, c.Spec)
		d.names = append(d.names, c.Spec.Name)
	}
	srv, err := edge.NewServer(specs)
	if err != nil {
		t.Fatal(err)
	}
	d.srv = srv
	add := func(name string, m *mesh.Mesh, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d.procs[name] = m
		d.names = append(d.names, name)
	}
	for _, seed := range []uint64{1, 7} {
		m, err := mesh.Blob(3000, seed, 0.3)
		add(fmt.Sprintf("blob-3000-%d-0.3", seed), m, err)
	}
	m, err := mesh.UVSphere(24, 48)
	add("uvsphere-24x48", m, err)
	m, err = mesh.Torus(0.3, 24, 48)
	add("torus-0.3-24x48", m, err)
	m, err = mesh.Box(12)
	add("box-12", m, err)
	return d
}

func (d *goldenDecimator) Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	full, ok := d.procs[object]
	if !ok {
		return d.srv.Decimate(object, ratio, fast)
	}
	if fast {
		return nil, fmt.Errorf("golden: %s has no fast path", object)
	}
	return mesh.DecimateToRatio(full, ratio)
}

// payloadRatios spread over the LOD range. Each is an exact 2% cache step,
// so the ratio the reference decimates at is the one the cache keys on.
var payloadRatios = []float64{2.0 / 50, 15.0 / 50, 28.0 / 50, 40.0 / 50, 1}

// assertSameMesh fails unless got carries want's exact float bits and
// triangle indices.
func assertSameMesh(t *testing.T, what string, want, got *mesh.Mesh) {
	t.Helper()
	if len(got.Vertices) != len(want.Vertices) || len(got.Triangles) != len(want.Triangles) {
		t.Fatalf("%s: %d vertices / %d triangles, want %d / %d", what,
			len(got.Vertices), len(got.Triangles), len(want.Vertices), len(want.Triangles))
	}
	for i, v := range want.Vertices {
		g := got.Vertices[i]
		if math.Float64bits(g.X) != math.Float64bits(v.X) ||
			math.Float64bits(g.Y) != math.Float64bits(v.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(v.Z) {
			t.Fatalf("%s: vertex %d = %v, want %v (bitwise)", what, i, g, v)
		}
	}
	for i, tri := range want.Triangles {
		if got.Triangles[i] != tri {
			t.Fatalf("%s: triangle %d = %v, want %v", what, i, got.Triangles[i], tri)
		}
	}
}

// postDecimate fetches one payload over plain HTTP, for the headers
// sessiond.Client does not surface.
func postDecimate(t *testing.T, base string, req sessiond.DecimateRequest) (http.Header, []byte) {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"object":%q,"ratio":%v}`, req.ID, req.Object, req.Ratio)
	resp, err := http.Post(base+"/session/decimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decimate %+v: status %d: %s", req, resp.StatusCode, payload)
	}
	if resp.ContentLength != int64(len(payload)) {
		t.Fatalf("decimate %+v: Content-Length %d for a %d-byte body", req, resp.ContentLength, len(payload))
	}
	if ct := resp.Header.Get("Content-Type"); ct != sessiond.MeshContentType {
		t.Fatalf("decimate %+v: Content-Type %q", req, ct)
	}
	return resp.Header, payload
}

// TestDecimatePayloadBitIdentical serves the golden meshes at a spread of
// ratios through an HTTP sessiond and checks that Client.Decimate returns
// exactly what the decimator produced — float bits and indices — on a
// cache miss, on a hit (the cached bytes served verbatim), and after a
// warm restart, where the session's restored manifest placeholders are
// re-decimated on first touch.
func TestDecimatePayloadBitIdentical(t *testing.T) {
	ref := newGoldenDecimator(t)
	want := map[string]*mesh.Mesh{}
	key := func(name string, ratio float64) string { return fmt.Sprintf("%s@%v", name, ratio) }
	for _, name := range ref.names {
		for _, r := range payloadRatios {
			m, err := ref.Decimate(name, r, false)
			if err != nil {
				t.Fatalf("reference %s: %v", key(name, r), err)
			}
			want[key(name, r)] = m
		}
	}

	store := snapstore.NewMemStore()
	cfg := sessiond.DefaultConfig()
	cfg.Shards = 1
	cfg.Store = store
	cfg.MeshCacheCap = len(want) + 1 // every variant plus the 0.5 probe: nothing evicts
	ctx := context.Background()
	fetchAll := func(sc *sessiond.Client, phase string) {
		t.Helper()
		for _, name := range ref.names {
			for _, r := range payloadRatios {
				got, err := sc.Decimate(ctx, name, r, false)
				if err != nil {
					t.Fatalf("%s %s: %v", phase, key(name, r), err)
				}
				assertSameMesh(t, phase+" "+key(name, r), want[key(name, r)], got)
			}
		}
	}

	dec1 := &countingDecimator{Decimator: ref}
	svc1, err := sessiond.New(cfg, dec1)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	sc := newTestClient(t, ts1.URL, "golden", 1)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatal(err)
	}
	fetchAll(sc, "miss")
	if n := dec1.calls.Load(); n != int64(len(want)) {
		t.Fatalf("miss pass decimated %d times, want %d", n, len(want))
	}
	fetchAll(sc, "hit")
	if n := dec1.calls.Load(); n != int64(len(want)) {
		t.Fatalf("hit pass decimated again: %d calls, want %d", n, len(want))
	}
	// A hit is the miss's bytes verbatim; a new key reports a miss.
	probe := sessiond.DecimateRequest{ID: "golden", Object: ref.names[0], Ratio: payloadRatios[2]}
	hitHdr, hitBody := postDecimate(t, ts1.URL, probe)
	if got := hitHdr.Get(sessiond.MeshCacheHeader); got != "hit" {
		t.Fatalf("cached fetch reports %s %q, want hit", sessiond.MeshCacheHeader, got)
	}
	probe.Ratio = 0.5
	if hdr, _ := postDecimate(t, ts1.URL, probe); hdr.Get(sessiond.MeshCacheHeader) != "miss" {
		t.Fatalf("new ratio reports %s %q, want miss", sessiond.MeshCacheHeader, hdr.Get(sessiond.MeshCacheHeader))
	}
	// One observation makes the session dirty, so Flush snapshots it —
	// manifest included.
	point, err := sc.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Observe(ctx, point, 0.5); err != nil {
		t.Fatal(err)
	}
	svc1.Flush()
	ts1.Close()
	svc1.Close()

	// Warm restart over the same store: the session comes back with its
	// manifest as placeholders, so every variant is re-decimated once —
	// bit-identical — and then served from the cache again.
	dec2 := &countingDecimator{Decimator: ref}
	svc2, err := sessiond.New(cfg, dec2)
	if err != nil {
		t.Fatal(err)
	}
	if d := svc2.Durability(); d.Restores != 1 {
		t.Fatalf("warm restart restored %d sessions, want 1", d.Restores)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	defer svc2.Close()
	probe.Ratio = payloadRatios[2]
	missHdr, missBody := postDecimate(t, ts2.URL, probe)
	if got := missHdr.Get(sessiond.MeshCacheHeader); got != "miss" {
		t.Fatalf("placeholder fetch reports %s %q, want miss", sessiond.MeshCacheHeader, got)
	}
	if !bytes.Equal(missBody, hitBody) {
		t.Fatal("re-decimated payload differs from the one cached before the restart")
	}
	sc2 := newTestClient(t, ts2.URL, "golden", 1)
	fetchAll(sc2, "restored")
	if n := dec2.calls.Load(); n != int64(len(want)) {
		t.Fatalf("restored pass decimated %d times, want %d (one per placeholder)", n, len(want))
	}
	fetchAll(sc2, "restored hit")
	if n := dec2.calls.Load(); n != int64(len(want)) {
		t.Fatalf("restored hit pass decimated again: %d calls, want %d", n, len(want))
	}
}

// faultyClient builds a session client whose link runs through a
// fault-injecting transport, with instant backoff and a breaker that stays
// closed for the run.
func faultyClient(t *testing.T, base string, tr http.RoundTripper, mut func(*edge.ClientConfig)) (*sessiond.Client, *edge.Client) {
	t.Helper()
	cfg := edge.DefaultClientConfig()
	cfg.Transport = tr
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = time.Millisecond
	cfg.Sleep = func(time.Duration) {}
	cfg.BreakerFailureThreshold = 1000
	if mut != nil {
		mut(&cfg)
	}
	ec, err := edge.NewClientWithConfig(base, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sessiond.NewClient(ec, "faulty", testResources, testRMin, 1, testInit)
	if err != nil {
		t.Fatal(err)
	}
	return sc, ec
}

// TestDecimateFaultsNeverCorrupt fetches meshes over a link that truncates
// and corrupts response bodies. Every fetch must return the clean link's
// mesh bit for bit or fail — never a damaged mesh — and every mangled body
// must cost exactly one retry: the CRC and length checks make it an
// ordinary decode error inside the retried attempt.
func TestDecimateFaultsNeverCorrupt(t *testing.T) {
	specs := make([]render.ObjectSpec, 0, 4)
	for _, c := range render.SC2() {
		specs = append(specs, c.Spec)
	}
	srv, err := edge.NewServer(specs)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newDecimatorService(t, srv)
	ctx := context.Background()

	tr := faults.NewTransport(nil, 11, faults.Plan{TruncateRate: 0.2, CorruptRate: 0.3})
	sc, ec := faultyClient(t, ts.URL, tr, func(cfg *edge.ClientConfig) { cfg.MaxRetries = 4 })
	if _, err := sc.Open(ctx); err != nil {
		t.Fatal(err)
	}
	ok, failed := 0, 0
	for round := 0; round < 3; round++ {
		for _, sp := range specs {
			for _, r := range payloadRatios {
				want, err := srv.Decimate(sp.Name, r, false)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sc.Decimate(ctx, sp.Name, r, false)
				if err != nil {
					failed++
					continue
				}
				ok++
				assertSameMesh(t, fmt.Sprintf("%s@%v round %d", sp.Name, r, round), want, got)
			}
		}
	}
	st := tr.Stats()
	if st.Truncated == 0 || st.Corrupted == 0 {
		t.Fatalf("fault plan never fired: %+v", st)
	}
	if ok == 0 {
		t.Fatalf("no fetch survived the faulty link (%d failed)", failed)
	}
	// Each failed call burned 1+MaxRetries mangled attempts but retried only
	// MaxRetries of them; every other mangled body was retried once.
	if got, want := ec.Retries(), st.Truncated+st.Corrupted-failed; got != want {
		t.Fatalf("retries = %d, want %d (%+v, %d failed calls)", got, want, st, failed)
	}
}

// TestDecimateOversizeRejected checks the client's response bound covers
// the binary payload: a mesh over MaxResponseBytes is refused from its
// Content-Length, not read.
func TestDecimateOversizeRejected(t *testing.T) {
	srv, err := edge.NewServer([]render.ObjectSpec{
		{Name: "big", MaxTriangles: 2000, Shape: render.ShapeBlob, ShapeSeed: 3, Roughness: 0.3, DistExp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newDecimatorService(t, srv)
	ctx := context.Background()
	sc, _ := faultyClient(t, ts.URL, nil, func(cfg *edge.ClientConfig) {
		cfg.MaxRetries = 0
		cfg.MaxResponseBytes = 1024
	})
	if _, err := sc.Open(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = sc.Decimate(ctx, "big", 1, false)
	if err == nil || !strings.Contains(err.Error(), "exceeds 1024-byte limit") {
		t.Fatalf("oversize mesh: err = %v, want the response bound", err)
	}
	// A mesh under the bound still arrives.
	if _, err := sc.Decimate(ctx, "big", 0.01, false); err != nil {
		t.Fatalf("small mesh under the bound: %v", err)
	}
}

// TestDecimateConcurrentHits fetches one variant from many goroutines at
// once: every fetch shares the session's one cached payload, which must
// reach each client intact (run under -race).
func TestDecimateConcurrentHits(t *testing.T) {
	specs := []render.ObjectSpec{render.SC2()[1].Spec}
	srv, err := edge.NewServer(specs)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newDecimatorService(t, srv)
	ctx := context.Background()
	want, err := srv.Decimate(specs[0].Name, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newTestClient(t, ts.URL, "shared", 1).Open(ctx); err != nil {
		t.Fatal(err)
	}
	got := make([][]*mesh.Mesh, 8)
	var wg sync.WaitGroup
	for w := range got {
		sc := newTestClient(t, ts.URL, "shared", 1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				m, err := sc.Decimate(ctx, specs[0].Name, 0.5, false)
				if err != nil {
					t.Errorf("worker %d fetch %d: %v", w, i, err)
					return
				}
				got[w] = append(got[w], m)
			}
		}(w)
	}
	wg.Wait()
	for w, ms := range got {
		for i, m := range ms {
			assertSameMesh(t, fmt.Sprintf("worker %d fetch %d", w, i), want, m)
		}
	}
}
