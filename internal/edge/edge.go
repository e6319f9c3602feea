// Package edge holds the two halves of the paper's Figure 3 edge that do
// not depend on sessions: the catalog decimation core (Server.Decimate:
// full-quality geometry built once per object, then quadric edge collapse or
// vertex clustering) and the device side's fault-tolerant HTTP transport
// (Client: per-attempt timeouts, retries with capped backoff, and a circuit
// breaker). The served routes live in package sessiond, which decimates
// through a Server and whose client posts through a Client; Server.Handler
// adds only the liveness probe.
package edge

import (
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

	mu     sync.Mutex
	meshes map[string]*mesh.Mesh // full-quality geometry, built lazily

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
		specs:  make(map[string]render.ObjectSpec, len(specs)),
		meshes: make(map[string]*mesh.Mesh),
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

// geometry returns (building if needed) the full-quality mesh for an object.
// The cache is guarded: concurrent requests for the same object build it at
// most once while the lock is held (geometry generation is fast enough that
// holding the lock across the build is simpler than per-key once values).
func (s *Server) geometry(name string) (*mesh.Mesh, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.meshes[name]; ok {
		return m, nil
	}
	spec, ok := s.specs[name]
	if !ok {
		return nil, fmt.Errorf("edge: unknown object %q", name)
	}
	m, err := spec.Geometry()
	if err != nil {
		return nil, err
	}
	s.meshes[name] = m
	return m, nil
}

// Decimate runs the server's decimation pipeline directly: full-quality
// geometry from the catalog cache, then quadric edge collapse (or vertex
// clustering when fast). The session service serves its per-session mesh
// caches through it (it satisfies sessiond.Decimator).
func (s *Server) Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	if math.IsNaN(ratio) || ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("edge: ratio %v out of (0,1]", ratio)
	}
	full, err := s.geometry(object)
	if err != nil {
		return nil, err
	}
	if fast {
		target := int(ratio * float64(full.TriangleCount()))
		if target < 1 {
			target = 1
		}
		return mesh.VertexClustering(full, target)
	}
	return mesh.DecimateToRatio(full, ratio)
}
