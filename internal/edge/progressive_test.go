package edge

import (
	"reflect"
	"sync"
	"testing"

	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/render"
)

func catalogServer(t *testing.T) (*Server, []render.ObjectSpec) {
	t.Helper()
	var specs []render.ObjectSpec
	for _, c := range append(render.SC1(), render.SC2()...) {
		specs = append(specs, c.Spec)
	}
	srv, err := NewServer(specs)
	if err != nil {
		t.Fatal(err)
	}
	return srv, specs
}

// cachedLog returns the progressive log cached for an object, nil when the
// object has no entry or no log yet.
func cachedLog(srv *Server, name string) *mesh.Progressive {
	srv.mu.Lock()
	o := srv.objects[name]
	srv.mu.Unlock()
	if o == nil {
		return nil
	}
	return o.log
}

// TestDecimateBuildsLogBelowFullResolution pins when the progressive log is
// built: never for a full-resolution request (the warm-up path), and on the
// first request below it, after which later ratios reuse the same log. A
// burst of concurrent cold requests must all see the one log (run with
// -race to catch cache races).
func TestDecimateBuildsLogBelowFullResolution(t *testing.T) {
	srv, specs := catalogServer(t)
	name := specs[0].Name
	if _, err := srv.Decimate(name, 1, false); err != nil {
		t.Fatal(err)
	}
	if log := cachedLog(srv, name); log != nil {
		t.Fatal("ratio 1 built a progressive log")
	}
	if _, err := srv.Decimate(name, 0.5, false); err != nil {
		t.Fatal(err)
	}
	first := cachedLog(srv, name)
	if first == nil {
		t.Fatal("a sub-1 request built no progressive log")
	}
	for _, r := range []float64{0.4, 0.3} {
		if _, err := srv.Decimate(name, r, false); err != nil {
			t.Fatal(err)
		}
	}
	if cachedLog(srv, name) != first {
		t.Fatal("a later sub-1 request replaced the progressive log")
	}

	cold := specs[1].Name
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.Decimate(cold, 0.1+0.1*float64(w), false)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if cachedLog(srv, cold) == nil {
		t.Fatalf("%d concurrent cold requests left no progressive log", workers)
	}
}

// TestDecimateMatchesReference checks the served precise path against the
// reference decimator on every catalog object.
func TestDecimateMatchesReference(t *testing.T) {
	srv, specs := catalogServer(t)
	for _, sp := range specs {
		full, err := sp.Geometry()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []float64{0.02, 0.3, 0.5, 0.98} {
			want, err := mesh.DecimateToRatio(full, r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := srv.Decimate(sp.Name, r, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %v: served mesh (%d triangles) differs from DecimateToRatio (%d)",
					sp.Name, r, got.TriangleCount(), want.TriangleCount())
			}
		}
	}
}
