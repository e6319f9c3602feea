// Package edge holds the two halves of the paper's Figure 3 edge that do
// not depend on sessions: the catalog decimation core (Server.Decimate:
// full-quality geometry built once per object, then a prefix of the
// object's progressive collapse log) and
// the device side's fault-tolerant HTTP transport (Client: per-attempt
// timeouts, retries with capped backoff, and a circuit breaker). The
// served routes live in package sessiond, which decimates through a Server
// and whose client posts through a Client; Server.Handler adds only the
// liveness probe.
package edge

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/render"
)

// Server owns the object catalog whose meshes it can decimate. Safe for
// concurrent use.
type Server struct {
	specs map[string]render.ObjectSpec

	mu      sync.Mutex
	objects map[string]*object // built lazily, one per catalog object

	// reg is the attached metrics registry; nil leaves Handler uninstrumented
	// (no wrapper, no per-request overhead at all).
	reg *obs.Registry
}

// SetObserver attaches a metrics registry to the server: request and error
// counters plus a wall-clock latency histogram for its route. Call before
// Handler(); passing nil (the default) keeps the route unwrapped.
func (s *Server) SetObserver(reg *obs.Registry) { s.reg = reg }

// NewServer builds a server for the given catalog.
func NewServer(specs []render.ObjectSpec) (*Server, error) {
	s := &Server{
		specs:   make(map[string]render.ObjectSpec, len(specs)),
		objects: make(map[string]*object),
	}
	for _, sp := range specs {
		if _, dup := s.specs[sp.Name]; dup {
			return nil, fmt.Errorf("edge: duplicate spec %q", sp.Name)
		}
		s.specs[sp.Name] = sp
	}
	return s, nil
}

// Handler returns the server's one route, GET /healthz, the liveness probe
// deployments poll. Mount it next to the session routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_, _ = w.Write([]byte("ok\n"))
	})))
	return mux
}

// instrument wraps a route with request/error counters and a latency
// histogram when a registry is attached; with none it returns h unchanged.
// Instruments are resolved once here, so the per-request cost is two atomic
// increments and a histogram observe.
func (s *Server) instrument(name string, h http.Handler) http.Handler {
	if s.reg == nil {
		return h
	}
	requests := s.reg.Counter("edge.server.requests." + name)
	errors := s.reg.Counter("edge.server.errors." + name)
	latency := s.reg.Histogram("edge.server.latency_ms."+name, obs.LatencyBucketsMS)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		latency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		requests.Inc()
		if rec.status >= 400 {
			errors.Inc()
		}
	})
}

// statusRecorder captures the response status for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// object is one catalog object's cached geometry: the full-quality mesh,
// and the progressive collapse log built from it on the first request below
// full resolution.
type object struct {
	full *mesh.Mesh
	once sync.Once
	log  *mesh.Progressive
	err  error
}

// geometry returns (building if needed) the cache entry for an object, with
// its full-quality mesh. Concurrent requests for the same object build the
// mesh at most once while the lock is held (geometry generation is fast
// enough that holding the lock across the build is simpler than per-key
// once values).
func (s *Server) geometry(name string) (*object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.objects[name]; ok {
		return o, nil
	}
	spec, ok := s.specs[name]
	if !ok {
		return nil, fmt.Errorf("edge: unknown object %q", name)
	}
	m, err := spec.Geometry()
	if err != nil {
		return nil, err
	}
	o := &object{full: m}
	s.objects[name] = o
	return o, nil
}

// collapseLog returns the object's progressive log, building it on first
// use under the object's own once: a ~6 ms build for one object blocks
// only the requests for that object, never the server-wide lock.
func (o *object) collapseLog() (*mesh.Progressive, error) {
	o.once.Do(func() {
		o.log, o.err = mesh.NewProgressive(o.full)
	})
	return o.log, o.err
}

// Decimate runs the server's decimation pipeline directly: full-quality
// geometry from the catalog cache, then the prefix of the object's
// progressive log that equals quadric edge collapse to the ratio. A
// full-resolution ratio returns a copy of the geometry and builds no log.
// fast must be false: the edge serves only quadric edge collapse, and the
// flag stays in the signature only because sessiond.Decimator keeps it.
// The session service serves its per-session mesh caches through it (it
// satisfies sessiond.Decimator).
func (s *Server) Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	if fast {
		return nil, errors.New("edge: the fast decimation path is not served")
	}
	if math.IsNaN(ratio) || ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("edge: ratio %v out of (0,1]", ratio)
	}
	o, err := s.geometry(object)
	if err != nil {
		return nil, err
	}
	full := o.full
	target, err := mesh.RatioTarget(ratio, full.TriangleCount())
	if err != nil {
		return nil, err
	}
	if target >= full.TriangleCount() {
		return mesh.Decimate(full, target)
	}
	log, err := o.collapseLog()
	if err != nil {
		return nil, err
	}
	return log.At(target)
}
