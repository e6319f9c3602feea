package sessiond_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/render"
)

// stubDecimator fabricates a tiny valid mesh and counts calls, so cache
// hits are observable as calls that never reach it.
type stubDecimator struct {
	calls int
	fail  bool
}

func (d *stubDecimator) Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	d.calls++
	if d.fail {
		return nil, fmt.Errorf("stub: no such object %q", object)
	}
	return &mesh.Mesh{
		Vertices: []mesh.Vec3{
			{X: 0, Y: 0, Z: 0},
			{X: 1, Y: 0, Z: 0},
			{X: 0, Y: 1, Z: 0},
		},
		Triangles: []mesh.Triangle{{0, 1, 2}},
	}, nil
}

func newDecimatorService(t *testing.T, dec sessiond.Decimator) (*sessiond.Service, *httptest.Server) {
	t.Helper()
	cfg := sessiond.DefaultConfig()
	cfg.Shards = 1
	svc, err := sessiond.New(cfg, dec)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return svc, ts
}

// TestSessionDecimateCaching drives the per-session mesh cache: a repeated
// (object, ratio) hits the cache, a new ratio misses, and quantization maps
// near-identical ratios onto one cache entry.
func TestSessionDecimateCaching(t *testing.T) {
	dec := &stubDecimator{}
	_, ts := newDecimatorService(t, dec)
	ctx := context.Background()
	sc := newTestClient(t, ts.URL, "meshy", 5)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	m, err := sc.Decimate(ctx, "cube", 0.5, false)
	if err != nil {
		t.Fatalf("decimate: %v", err)
	}
	if m.TriangleCount() != 1 {
		t.Fatalf("triangles = %d, want 1", m.TriangleCount())
	}
	if dec.calls != 1 {
		t.Fatalf("decimator calls = %d, want 1", dec.calls)
	}
	// Same ratio again: served from the session cache.
	if _, err := sc.Decimate(ctx, "cube", 0.5, false); err != nil {
		t.Fatalf("decimate (cached): %v", err)
	}
	if dec.calls != 1 {
		t.Fatalf("decimator calls after repeat = %d, want 1 (cache miss leaked through)", dec.calls)
	}
	// A ratio inside the same 2% quantization step shares the entry.
	if _, err := sc.Decimate(ctx, "cube", 0.501, false); err != nil {
		t.Fatalf("decimate (quantized): %v", err)
	}
	if dec.calls != 1 {
		t.Fatalf("decimator calls after quantized repeat = %d, want 1", dec.calls)
	}
	// A genuinely different ratio misses.
	if _, err := sc.Decimate(ctx, "cube", 0.25, false); err != nil {
		t.Fatalf("decimate (new ratio): %v", err)
	}
	if dec.calls != 2 {
		t.Fatalf("decimator calls after new ratio = %d, want 2", dec.calls)
	}
}

// TestDecimateRejectsFast pins that the route serves only quadric edge
// collapse: a "fast" request is a 400 before the session lookup, so neither
// the decimator nor the session's mesh cache sees it — for an open session
// and an unknown one alike.
func TestDecimateRejectsFast(t *testing.T) {
	dec := &stubDecimator{}
	svc, ts := newDecimatorService(t, dec)
	reg := obs.New()
	svc.SetObserver(reg)
	ctx := context.Background()
	sc := newTestClient(t, ts.URL, "s", 1)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := sc.Decimate(ctx, "cube", 0.5, false); err != nil {
		t.Fatalf("decimate: %v", err)
	}
	before := reg.Snapshot().Counters
	if before["sessiond.mesh_cache_misses"] != 1 {
		t.Fatalf("mesh cache misses = %d after one fetch, want 1", before["sessiond.mesh_cache_misses"])
	}
	for _, c := range []*sessiond.Client{sc, newTestClient(t, ts.URL, "ghost", 1)} {
		for _, ratio := range []float64{0.5, 0.25} {
			_, err := c.Decimate(ctx, "cube", ratio, true)
			if code, ok := edge.StatusCode(err); !ok || code != http.StatusBadRequest {
				t.Fatalf("fast decimate at ratio %v = %v, want 400", ratio, err)
			}
		}
	}
	if dec.calls != 1 {
		t.Fatalf("decimator calls = %d, want 1 (a fast request reached it)", dec.calls)
	}
	after := reg.Snapshot().Counters
	for _, name := range []string{"sessiond.mesh_cache_hits", "sessiond.mesh_cache_misses", "sessiond.unknown_session"} {
		if after[name] != before[name] {
			t.Fatalf("%s moved from %d to %d on fast requests", name, before[name], after[name])
		}
	}
}

// TestDecimateErrors covers the decimate route's failure surface.
func TestDecimateErrors(t *testing.T) {
	ctx := context.Background()
	t.Run("no decimator attached", func(t *testing.T) {
		_, ts := newDecimatorService(t, nil)
		sc := newTestClient(t, ts.URL, "s", 1)
		if _, err := sc.Open(ctx); err != nil {
			t.Fatalf("open: %v", err)
		}
		_, err := sc.Decimate(ctx, "cube", 0.5, false)
		if code, ok := edge.StatusCode(err); !ok || code != http.StatusNotImplemented {
			t.Fatalf("decimate without decimator = %v, want 501", err)
		}
	})
	t.Run("unknown session", func(t *testing.T) {
		_, ts := newDecimatorService(t, &stubDecimator{})
		sc := newTestClient(t, ts.URL, "ghost", 1)
		_, err := sc.Decimate(ctx, "cube", 0.5, false)
		if code, ok := edge.StatusCode(err); !ok || code != http.StatusNotFound {
			t.Fatalf("decimate on unknown session = %v, want 404", err)
		}
	})
	t.Run("invalid ratio", func(t *testing.T) {
		_, ts := newDecimatorService(t, &stubDecimator{})
		sc := newTestClient(t, ts.URL, "s", 1)
		if _, err := sc.Open(ctx); err != nil {
			t.Fatalf("open: %v", err)
		}
		for _, ratio := range []float64{0, -0.5, 1.5} {
			_, err := sc.Decimate(ctx, "cube", ratio, false)
			if code, ok := edge.StatusCode(err); !ok || code != http.StatusBadRequest {
				t.Fatalf("decimate ratio %v = %v, want 400", ratio, err)
			}
		}
	})
	t.Run("decimator failure", func(t *testing.T) {
		_, ts := newDecimatorService(t, &stubDecimator{fail: true})
		sc := newTestClient(t, ts.URL, "s", 1)
		if _, err := sc.Open(ctx); err != nil {
			t.Fatalf("open: %v", err)
		}
		_, err := sc.Decimate(ctx, "nosuch", 0.5, false)
		if code, ok := edge.StatusCode(err); !ok || code != http.StatusNotFound {
			t.Fatalf("decimate of unknown object = %v, want 404", err)
		}
	})
}

// TestObserveAtRefusesWrappingIndex checks that an index the observe
// frame's u32 slot cannot carry is refused before it is sent: 2³² would
// otherwise wrap onto slot 0 and be appended to an empty session.
func TestObserveAtRefusesWrappingIndex(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot hold 2^32")
	}
	_, ts := newDecimatorService(t, nil)
	ctx := context.Background()
	sc := newTestClient(t, ts.URL, "wrap", 1)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	point, err := sc.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest: %v", err)
	}
	shift := 32 // a variable, so this compiles where int is 32 bits
	err = sc.ObserveAt(ctx, 1<<shift, point, 0.5)
	if code, ok := edge.StatusCode(err); !ok || code != http.StatusUnprocessableEntity {
		t.Fatalf("observe at slot 2^32 = %v, want 422", err)
	}
	// Re-opening the live session reports how many observations it holds.
	res, err := sc.Open(ctx)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	if !res.Existing || res.Observations != 0 {
		t.Fatalf("re-open = %+v, want the existing session with 0 observations", res)
	}
}

// TestStatzAndObserveValidation covers /session/statz and the observe op's
// input validation, through the session client's single-frame carrier.
func TestStatzAndObserveValidation(t *testing.T) {
	svc, ts := newDecimatorService(t, nil)
	_ = svc
	ctx := context.Background()
	sc := newTestClient(t, ts.URL, "s", 1)
	if _, err := sc.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}

	resp, err := http.Get(ts.URL + "/session/statz")
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	defer resp.Body.Close()
	var stats sessiond.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("statz decode: %v", err)
	}
	if stats.Sessions != 1 || len(stats.Shards) != 1 {
		t.Fatalf("statz = %+v, want 1 session in 1 shard", stats)
	}

	point, err := sc.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest: %v", err)
	}
	// A point outside the domain is a 422.
	err = sc.ObserveAt(ctx, 0, []float64{-1, -1, -1, -1}, 0.5)
	if code, ok := edge.StatusCode(err); !ok || code != http.StatusUnprocessableEntity {
		t.Fatalf("observe out-of-domain = %v, want 422", err)
	}
	// A non-finite cost is a 422.
	err = sc.ObserveAt(ctx, 0, point, math.Inf(1))
	if code, ok := edge.StatusCode(err); !ok || code != http.StatusUnprocessableEntity {
		t.Fatalf("observe infinite cost = %v, want 422", err)
	}
	// A slot past the session's next one is a gap, a 422. No index appends
	// unconditionally: a negative one is refused with the same typed 422
	// before it is sent.
	for _, index := range []int{1, -1} {
		err = sc.ObserveAt(ctx, index, point, 0.5)
		if code, ok := edge.StatusCode(err); !ok || code != http.StatusUnprocessableEntity {
			t.Fatalf("observe at slot %d of 0 = %v, want 422", index, err)
		}
	}
	// Unknown session observe is a 404.
	err = newTestClient(t, ts.URL, "ghost", 1).ObserveAt(ctx, 0, point, 0.5)
	if code, ok := edge.StatusCode(err); !ok || code != http.StatusNotFound {
		t.Fatalf("observe unknown session = %v, want 404", err)
	}
	// Close is idempotent in outcome reporting.
	if err := sc.CloseSession(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := sc.CloseSession(ctx); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// countingDecimator counts the decimations that reach the catalog.
type countingDecimator struct {
	sessiond.Decimator
	calls atomic.Int64
}

func (d *countingDecimator) Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	d.calls.Add(1)
	return d.Decimator.Decimate(object, ratio, fast)
}

// TestLODServesScene is the full Fig. 3 loop through render.LODProvider: a
// scene fetches its decimated geometry over the wire before anything has
// opened the session (the LOD opens it), and re-applying the same ratios is
// served from the session's mesh cache without decimating again.
func TestLODServesScene(t *testing.T) {
	specs := []render.ObjectSpec{
		{Name: "cabin", MaxTriangles: 1200, Shape: render.ShapeBox, ShapeSeed: 2, DistExp: 1},
		{Name: "hammer", MaxTriangles: 1500, Shape: render.ShapeTorus, ShapeSeed: 3, DistExp: 1.2},
	}
	srv, err := edge.NewServer(specs)
	if err != nil {
		t.Fatal(err)
	}
	dec := &countingDecimator{Decimator: srv}
	_, ts := newDecimatorService(t, dec)
	lod := sessiond.NewLOD(context.Background(), newTestClient(t, ts.URL, "scene", 1))
	var _ render.LODProvider = lod

	lib, err := render.NewLibrary(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	scene := render.NewScene(lib)
	for _, sp := range specs {
		if _, err := scene.Place(sp.Name, 1, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range scene.Objects() {
		o.Triangles = o.Spec.MaxTriangles / 2
	}
	if err := scene.ApplyLOD(lod, 0.02); err != nil {
		t.Fatal(err)
	}
	for _, o := range scene.Objects() {
		if o.Geometry == nil || o.Geometry.TriangleCount() == 0 {
			t.Fatalf("object %s got no geometry over the wire", o.ID())
		}
	}
	before := dec.calls.Load()
	for _, o := range scene.Objects() {
		o.GeometryRatio = 0 // force refetch through the provider
	}
	if err := scene.ApplyLOD(lod, 0.02); err != nil {
		t.Fatal(err)
	}
	if after := dec.calls.Load(); after != before {
		t.Fatalf("refetch at same ratios decimated again: %d -> %d calls", before, after)
	}
}
