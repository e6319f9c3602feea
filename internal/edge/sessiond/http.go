package sessiond

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// The decimate route's binary response: its media type, and the header
// reporting what the session's mesh cache did ("hit" or "miss").
const (
	MeshContentType = "application/x-hbo-mesh"
	MeshCacheHeader = "X-Mesh-Cache"
)

// Request-handling bounds. One client is a single MAR session, so even
// generous bounds are tiny next to what an unvalidated request could cost:
// an unbounded body pins memory and a handler that never finishes pins a
// connection.
const maxRequestBytes = 4 << 20

// handlerTimeout bounds how long a decimate request waits for its mesh. It
// is a variable only so tests can shorten it.
var handlerTimeout = 30 * time.Second

// DecimateRequest fetches a decimated mesh through the session's private
// mesh cache. The 200 response body is the binary mesh payload
// (wire.AppendMesh, DESIGN.md §14), served verbatim from the cache on a
// hit; its X-Mesh-Cache header says "hit" or "miss". Fast must be false:
// the edge serves only quadric edge collapse and answers a fast request 400.
type DecimateRequest struct {
	ID     string  `json:"id"`
	Object string  `json:"object"`
	Ratio  float64 `json:"ratio"`
	Fast   bool    `json:"fast,omitempty"`
}

// ShardStats is one stripe's live state. QueueDepth counts the shard's
// suggests in flight (admitted, not yet answered).
type ShardStats struct {
	Sessions   int `json:"sessions"`
	QueueDepth int `json:"queue_depth"`
}

// StreamStats reports the binary stream surface's live and lifetime
// traffic: currently open streams, frames decoded and written, and frames
// the decoder refused (each of which terminated its stream).
type StreamStats struct {
	Open         int64  `json:"open"`
	FramesIn     uint64 `json:"frames_in"`
	FramesOut    uint64 `json:"frames_out"`
	DecodeErrors uint64 `json:"decode_errors"`
}

// Streams reads the stream counters. Correct with or without a registry —
// the counters are plain atomics, like the durability ones.
func (s *Service) Streams() StreamStats {
	return StreamStats{
		Open:         s.strOpen.Load(),
		FramesIn:     s.strFramesIn.Load(),
		FramesOut:    s.strFramesOut.Load(),
		DecodeErrors: s.strDecodeErrs.Load(),
	}
}

// StatsResponse is the /session/statz payload. Durability is present only
// when a session store is configured.
type StatsResponse struct {
	Sessions   int              `json:"sessions"`
	Shards     []ShardStats     `json:"shards"`
	Stream     StreamStats      `json:"stream"`
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// Register mounts the session routes on mux: /session/stream carries every
// session op (open, suggest, observe, close) as wire frames, the decimate
// route serves meshes, and statz reports live state. The decimate route
// bounds itself (handleDecimate): a body cap and a per-request timeout, so
// one abusive or stuck request cannot pin the server's memory or
// connections.
func (s *Service) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /session/decimate", s.handleDecimate)
	// The stream route has neither bound: it is long-lived and flushed per
	// frame, so a timeout or a body cap would sever a healthy stream. The
	// wire codec's per-frame bounds bound it instead.
	mux.HandleFunc("POST /session/stream", s.handleStream)
	mux.HandleFunc("GET /session/statz", s.handleStats)
}

// Handler returns a standalone mux holding only the session routes (tests,
// embedding under a stripped prefix).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

func validID(id string) error {
	if id == "" {
		return fmt.Errorf("sessiond: empty session id")
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("sessiond: session id over %d bytes", maxIDLen)
	}
	return nil
}

// handleDecimate serves one mesh payload. It enforces the route's bounds
// itself rather than through http.TimeoutHandler, which would copy every
// payload into a buffer of its own before writing it: the body is read
// through a 4 MiB cap, and the mesh is awaited for at most handlerTimeout,
// after which the request gets a 503 while the decimation finishes in the
// background (and still fills the session's cache).
func (s *Service) handleDecimate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req DecimateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.dec == nil {
		http.Error(w, "sessiond: no decimator attached", http.StatusNotImplemented)
		return
	}
	if math.IsNaN(req.Ratio) || req.Ratio <= 0 || req.Ratio > 1 {
		http.Error(w, fmt.Sprintf("sessiond: ratio %v out of (0,1]", req.Ratio), http.StatusBadRequest)
		return
	}
	if req.Fast {
		http.Error(w, "sessiond: the fast decimation path is not served", http.StatusBadRequest)
		return
	}
	sess, ok := s.lookup(req.ID)
	if !ok {
		s.metUnknown.Inc()
		http.Error(w, fmt.Sprintf("sessiond: unknown session %q", req.ID), http.StatusNotFound)
		return
	}
	d, ok := decimateWithin(r.Context(), sess, s.dec, &req)
	if !ok {
		http.Error(w, "sessiond: handler timeout", http.StatusServiceUnavailable)
		return
	}
	if d.err != nil {
		code := http.StatusNotFound
		if errors.Is(d.err, errMeshEncode) {
			code = http.StatusInternalServerError
		}
		http.Error(w, d.err.Error(), code)
		return
	}
	h := w.Header()
	h.Set("Content-Type", MeshContentType)
	h.Set("Content-Length", strconv.Itoa(len(d.payload)))
	if d.cached {
		s.metMeshHits.Inc()
		h.Set(MeshCacheHeader, "hit")
	} else {
		s.metMeshMisses.Inc()
		h.Set(MeshCacheHeader, "miss")
	}
	s.metDecimates.Inc()
	// Headers are out once Write starts; a failed write is the client's
	// (retried) problem.
	_, _ = w.Write(d.payload)
}

// decimated is one sess.decimate outcome, or the panic it raised.
type decimated struct {
	payload []byte
	cached  bool
	err     error
	panic   any
}

// decimateWithin runs sess.decimate on a goroutine of its own and waits
// for it at most handlerTimeout, or until the client goes away; ok is
// false if it stopped waiting. A panic in the Decimator is raised again on
// the calling goroutine, as http.TimeoutHandler does, so net/http's
// per-connection recovery still applies to it.
func decimateWithin(ctx context.Context, sess *session, dec Decimator, req *DecimateRequest) (d decimated, ok bool) {
	// Buffered, so a result nobody waits for any more cannot block its
	// goroutine.
	done := make(chan decimated, 1)
	go func() {
		var res decimated
		defer func() {
			if p := recover(); p != nil {
				res.panic = p
			}
			done <- res
		}()
		res.payload, res.cached, res.err = sess.decimate(dec, req.Object, req.Ratio)
	}()
	timer := time.NewTimer(handlerTimeout)
	defer timer.Stop()
	select {
	case d = <-done:
		if d.panic != nil {
			panic(d.panic)
		}
		return d, true
	case <-timer.C:
		return d, false
	case <-ctx.Done():
		return d, false
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{Shards: make([]ShardStats, len(s.shards))}
	for i, sh := range s.shards {
		sh.mu.Lock()
		n := len(sh.sessions)
		sh.mu.Unlock()
		resp.Shards[i] = ShardStats{Sessions: n, QueueDepth: int(sh.inFlight.Load())}
		resp.Sessions += n
	}
	resp.Stream = s.Streams()
	if s.cfg.Store != nil {
		d := s.Durability()
		resp.Durability = &d
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; error reporting is the middleware's job.
		return
	}
}
