package sessiond

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// The decimate route's binary response: its media type, and the header
// reporting what the session's mesh cache did ("hit" or "miss").
const (
	MeshContentType = "application/x-hbo-mesh"
	MeshCacheHeader = "X-Mesh-Cache"
)

// maxRequestBytes caps a decimate request body. One client is a single MAR
// session, so even a generous cap is tiny next to what an unbounded body
// could pin in memory.
const maxRequestBytes = 4 << 20

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
// caps its request body (handleDecimate), so one abusive request cannot pin
// the server's memory; it runs on the serving goroutine, so net/http
// recovers a Decimator panic itself and the http.Server's own timeouts
// bound slow clients.
func (s *Service) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /session/decimate", s.handleDecimate)
	// The stream route has no body cap: it is long-lived and flushed per
	// frame, so a cap would sever a healthy stream. The wire codec's
	// per-frame bounds bound it instead.
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

// handleDecimate serves one mesh payload on the serving goroutine: the body
// is read through a 4 MiB cap, and the payload is written straight from the
// session's cache with no buffering wrapper (http.TimeoutHandler would copy
// all of it). A waiting bound would protect nothing: a stalled decimation
// keeps the session's lock whether or not its request is still waited on.
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
	payload, cached, err := sess.decimate(s.dec, req.Object, req.Ratio)
	if err != nil {
		code := http.StatusNotFound
		if errors.Is(err, errMeshEncode) {
			code = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), code)
		return
	}
	h := w.Header()
	h.Set("Content-Type", MeshContentType)
	h.Set("Content-Length", strconv.Itoa(len(payload)))
	if cached {
		s.metMeshHits.Inc()
		h.Set(MeshCacheHeader, "hit")
	} else {
		s.metMeshMisses.Inc()
		h.Set(MeshCacheHeader, "miss")
	}
	s.metDecimates.Inc()
	// Headers are out once Write starts; a failed write is the client's
	// (retried) problem.
	_, _ = w.Write(payload)
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
