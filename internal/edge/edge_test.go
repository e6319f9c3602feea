package edge

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/render"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer([]render.ObjectSpec{
		{Name: "apricot", MaxTriangles: 2000, Shape: render.ShapeBlob, ShapeSeed: 1, Roughness: 0.3, DistExp: 1},
		{Name: "cabin", MaxTriangles: 1200, Shape: render.ShapeBox, ShapeSeed: 2, DistExp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestDecimateRoundTrip(t *testing.T) {
	m, err := newTestServer(t).Decimate("apricot", 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.TriangleCount() < 500 || m.TriangleCount() > 1200 {
		t.Fatalf("decimated count %d not near half of ~2000", m.TriangleCount())
	}
}

func TestDecimateErrors(t *testing.T) {
	srv := newTestServer(t)
	if _, err := srv.Decimate("ghost", 0.5, false); err == nil || !strings.Contains(err.Error(), "unknown object") {
		t.Fatalf("unknown object error = %v", err)
	}
	if _, err := srv.Decimate("apricot", 0, false); err == nil {
		t.Fatal("zero ratio accepted")
	}
	if _, err := srv.Decimate("apricot", 1.5, true); err == nil {
		t.Fatal("ratio > 1 accepted")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(""); err == nil {
		t.Fatal("empty base accepted")
	}
	cfg := DefaultClientConfig()
	cfg.Timeout = 0
	if _, err := NewClientWithConfig("http://x", 0, cfg); err == nil {
		t.Fatal("zero timeout accepted")
	}
}

func TestNewServerRejectsDuplicates(t *testing.T) {
	_, err := NewServer([]render.ObjectSpec{
		{Name: "a", MaxTriangles: 100, Shape: render.ShapeSphere},
		{Name: "a", MaxTriangles: 100, Shape: render.ShapeSphere},
	})
	if err == nil {
		t.Fatal("duplicate specs accepted")
	}
}

func TestServerConcurrentDecimation(t *testing.T) {
	srv, err := NewServer([]render.ObjectSpec{
		{Name: "apricot", MaxTriangles: 2000, Shape: render.ShapeBlob, ShapeSeed: 1, Roughness: 0.3, DistExp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the same (lazily built) mesh from many goroutines; run with
	// -race to catch geometry-cache races.
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			for i := 0; i < 5; i++ {
				ratio := 0.2 + 0.15*float64((w+i)%5)
				if _, err := srv.Decimate("apricot", ratio, false); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecimateRejectsFast pins that the server decimates only by quadric
// edge collapse: a fast request is an error, for a known object and an
// unknown one alike, since it fails before the catalog is consulted.
func TestDecimateRejectsFast(t *testing.T) {
	srv := newTestServer(t)
	for _, object := range []string{"apricot", "no-such-object"} {
		if m, err := srv.Decimate(object, 0.3, true); err == nil {
			t.Fatalf("Decimate(%q, 0.3, fast) = %d triangles, want an error", object, m.TriangleCount())
		}
	}
	if _, err := srv.Decimate("apricot", 0.3, false); err != nil {
		t.Fatal(err)
	}
}

func TestServerHealthz(t *testing.T) {
	srv, err := NewServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	srv.SetObserver(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if n := reg.Snapshot().Counters["edge.server.requests.healthz"]; n != 1 {
		t.Fatalf("instrumented healthz counted %d requests, want 1", n)
	}
}

func TestServerRejectsNaNRatio(t *testing.T) {
	if _, err := newTestServer(t).Decimate("apricot", math.NaN(), false); err == nil {
		t.Fatal("NaN ratio accepted")
	}
}
