package sessiond

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/mar-hbo/hbo/internal/bo/policies"
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
const (
	maxRequestBytes = 4 << 20
	handlerTimeout  = 30 * time.Second
)

// OpenRequest creates (or idempotently re-finds) a session. Init is the BO
// init-sample budget; zero means the paper's 5. Policy names the optimizer
// entrant (see internal/bo/policies); empty (or "gp-ei") means the paper's
// GP-EI default.
type OpenRequest struct {
	ID        string  `json:"id"`
	Resources int     `json:"resources"`
	RMin      float64 `json:"rmin"`
	Seed      uint64  `json:"seed"`
	Init      int     `json:"init,omitempty"`
	Policy    string  `json:"policy,omitempty"`
}

// OpenResponse reports the open outcome. Existing means the session was
// already live with identical parameters and was kept as-is; Restored means
// it was re-hydrated from a durable snapshot; Evicted names the LRU victim
// this open displaced ("" when the shard had room). Observations is the
// session's current database size — after a restore, the client replays
// only the history past this point instead of all of it.
// Ephemeral marks a session whose policy cannot snapshot (it carries state
// the snapshot format cannot express): eviction drops it and re-admission
// rebuilds via the client's full replay.
type OpenResponse struct {
	ID           string `json:"id"`
	Existing     bool   `json:"existing,omitempty"`
	Restored     bool   `json:"restored,omitempty"`
	Evicted      string `json:"evicted,omitempty"`
	Observations int    `json:"observations"`
	Ephemeral    bool   `json:"ephemeral,omitempty"`
}

// SuggestRequest asks for the session's next configuration.
type SuggestRequest struct {
	ID string `json:"id"`
}

// SuggestResponse carries the suggested point and the database size it was
// drawn against.
type SuggestResponse struct {
	Point        []float64 `json:"point"`
	Observations int       `json:"observations"`
}

// ObserveRequest records one measured (point, cost) pair.
type ObserveRequest struct {
	ID    string    `json:"id"`
	Point []float64 `json:"point"`
	Cost  float64   `json:"cost"`
}

// ObserveResponse echoes the database size after the append.
type ObserveResponse struct {
	Observations int `json:"observations"`
}

// CloseRequest tears a session down.
type CloseRequest struct {
	ID string `json:"id"`
}

// CloseResponse reports whether the session existed.
type CloseResponse struct {
	Closed bool `json:"closed"`
}

// DecimateRequest fetches a decimated mesh through the session's private
// mesh cache. The 200 response body is the binary mesh payload
// (wire.AppendMesh, DESIGN.md §14), served verbatim from the cache on a
// hit; its X-Mesh-Cache header says "hit" or "miss".
type DecimateRequest struct {
	ID     string  `json:"id"`
	Object string  `json:"object"`
	Ratio  float64 `json:"ratio"`
	Fast   bool    `json:"fast,omitempty"`
}

// ShardStats is one stripe's live state.
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

// Register mounts the session routes on mux. Every JSON POST handler runs
// behind a body cap and a per-handler timeout, so one abusive or stuck
// request cannot pin the server's memory or connections.
func (s *Service) Register(mux *http.ServeMux) {
	mux.Handle("POST /session/open", guard(s.handleOpen))
	mux.Handle("POST /session/suggest", guard(s.handleSuggest))
	mux.Handle("POST /session/observe", guard(s.handleObserve))
	mux.Handle("POST /session/close", guard(s.handleClose))
	mux.Handle("POST /session/decimate", guard(s.handleDecimate))
	// The stream route is deliberately unguarded: TimeoutHandler neither
	// supports Flush nor tolerates a response that outlives the timeout, and
	// a body cap would sever a healthy long-lived stream. The wire codec's
	// per-frame bounds and the stream's queue backpressure bound it instead.
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

// guard wraps a handler with the body cap and handler timeout.
func guard(h http.HandlerFunc) http.Handler {
	limited := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
		h(w, r)
	})
	return http.TimeoutHandler(limited, handlerTimeout, "sessiond: handler timeout")
}

// decodeRequest decodes a guarded JSON body: MaxBytesReader trips map to
// 413, everything else to 400.
func decodeRequest(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
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

func (s *Service) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req OpenRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := validID(req.ID); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p := params{
		resources: req.Resources,
		rmin:      req.RMin,
		seed:      req.Seed,
		init:      req.Init,
		policy:    policies.Canonical(req.Policy),
	}
	if p.init == 0 {
		p.init = 5
	}
	if err := p.validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sess, res, err := s.open(req.ID, p)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if res.existing {
		s.metReopens.Inc()
	} else {
		s.metOpens.Inc()
	}
	if res.evicted != "" {
		s.metEvictions.Inc()
	}
	s.metSessions.Set(float64(s.sessionCount()))
	writeJSON(w, OpenResponse{
		ID:           req.ID,
		Existing:     res.existing,
		Restored:     res.restored,
		Evicted:      res.evicted,
		Observations: sess.observations(),
		Ephemeral:    !sess.durable,
	})
}

func (s *Service) handleSuggest(w http.ResponseWriter, r *http.Request) {
	var req SuggestRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	sess, ok := s.peek(req.ID)
	if !ok {
		s.metUnknown.Inc()
		http.Error(w, fmt.Sprintf("sessiond: unknown session %q", req.ID), http.StatusNotFound)
		return
	}
	job := &suggestJob{sess: sess, reply: make(chan suggestResult, 1)}
	if !s.enqueueSuggest(sess, job) {
		s.metRejects.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSec))
		http.Error(w, "sessiond: suggest queue full, retry later", http.StatusServiceUnavailable)
		return
	}
	select {
	case res := <-job.reply:
		if res.err != nil {
			http.Error(w, res.err.Error(), http.StatusInternalServerError)
			return
		}
		s.metSuggests.Inc()
		writeJSON(w, SuggestResponse{Point: res.point, Observations: res.observations})
	case <-r.Context().Done():
		// The worker will still serve the job; the abandoned reply lands in
		// the buffered channel and is garbage collected with it.
		http.Error(w, "sessiond: client went away", http.StatusServiceUnavailable)
	}
}

func (s *Service) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	sess, ok := s.lookup(req.ID)
	if !ok {
		s.metUnknown.Inc()
		http.Error(w, fmt.Sprintf("sessiond: unknown session %q", req.ID), http.StatusNotFound)
		return
	}
	if math.IsNaN(req.Cost) || math.IsInf(req.Cost, 0) {
		http.Error(w, fmt.Sprintf("sessiond: non-finite cost %v", req.Cost), http.StatusUnprocessableEntity)
		return
	}
	n, dirty, err := sess.observe(req.Point, req.Cost)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.metObserves.Inc()
	if s.cfg.SnapshotEvery > 0 && dirty >= s.cfg.SnapshotEvery {
		s.saveSession(sess)
	}
	writeJSON(w, ObserveResponse{Observations: n})
}

func (s *Service) handleClose(w http.ResponseWriter, r *http.Request) {
	var req CloseRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	closed := s.remove(req.ID)
	if closed {
		s.metCloses.Inc()
		s.metSessions.Set(float64(s.sessionCount()))
	}
	writeJSON(w, CloseResponse{Closed: closed})
}

func (s *Service) handleDecimate(w http.ResponseWriter, r *http.Request) {
	var req DecimateRequest
	if !decodeRequest(w, r, &req) {
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
	sess, ok := s.lookup(req.ID)
	if !ok {
		s.metUnknown.Inc()
		http.Error(w, fmt.Sprintf("sessiond: unknown session %q", req.ID), http.StatusNotFound)
		return
	}
	payload, cached, err := sess.decimate(s.dec, req.Object, req.Ratio, req.Fast)
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
	// (retried) problem, as for the JSON routes.
	_, _ = w.Write(payload)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{Shards: make([]ShardStats, len(s.shards))}
	for i, sh := range s.shards {
		sh.mu.Lock()
		n := len(sh.sessions)
		sh.mu.Unlock()
		resp.Shards[i] = ShardStats{Sessions: n, QueueDepth: len(sh.queue)}
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
