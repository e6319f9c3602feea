package sessiond

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
)

// Server side of the session stream (DESIGN.md §14), the one server path
// for session ops. One POST to /session/stream is one full-duplex exchange:
// the client ships binary request frames down the request body, the server
// ships response frames back in request order. A multiplexed client keeps
// the exchange open for the life of its connection and never pays per-call
// HTTP overhead again; a single-frame POST is the same exchange ending
// after one frame, answered by exactly one frame.
//
// Concurrency shape: the handler goroutine runs one loop — decode a frame,
// serve it inline (suggests behind the admission control), write its
// response, flush — so responses leave in request order by construction,
// and one connection is served one frame at a time. Suggests on different
// connections run concurrently on their own handler goroutines.

// errFrame turns f into an application-level error response. The status is
// an HTTP status code, so the client maps it onto the same typed error a
// non-2xx response produces (404 readmit, 503 + Retry-After, 422).
func errFrame(f *wire.Frame, status int, msg string, retryAfter uint32) {
	f.Type = wire.TError
	f.Status = uint16(status)
	f.RetryAfterSec = retryAfter
	f.Msg = append(f.Msg[:0], msg...)
}

// handleStream serves one session stream. It has none of the decimate
// route's bounds: a stream is long-lived by design, so a per-request
// timeout and a body cap do not apply — per-frame bounds in the wire codec
// bound its resource use instead, and a client that stops reading
// responses stalls only its own connection.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	// The stream interleaves reads from the request body with writes to the
	// response. HTTP/1.x needs the explicit full-duplex opt-in; natively
	// duplex transports report ErrNotSupported and work regardless.
	_ = rc.EnableFullDuplex()
	// A stream lives as long as its client: clear the server's per-request
	// read/write deadlines (zero time means none — no clock is read, and
	// dead peers are reaped by TCP keepalive).
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	// Commit the headers now so the client's round trip completes and it
	// can start writing frames.
	_ = rc.Flush()

	s.metStreamOpens.Inc()
	s.metStreamsOpen.Set(float64(s.strOpen.Add(1)))
	var start time.Time
	if s.metStreamDurMS != nil {
		start = time.Now()
	}

	s.serveFrames(r.Body, w, rc)

	s.metStreamsOpen.Set(float64(s.strOpen.Add(-1)))
	if s.metStreamDurMS != nil {
		s.metStreamDurMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

// serveFrames is the stream's frame loop: decode, dispatch, write the
// response, flush. A clean EOF (client closed its send side) ends the
// stream; a framing error also ends it — frames are byte-positional, so
// after one bad frame the stream cannot resync and terminating is the only
// safe move — and so does a failed write or flush. Only codec-level
// rejections count as decode errors: a connection dropped mid-frame is
// ordinary churn, not corruption worth alerting on.
func (s *Service) serveFrames(body io.Reader, w io.Writer, rc *http.ResponseController) {
	fr := wire.GetReader(body)
	defer wire.PutReader(fr)
	fw := wire.GetWriter(w)
	defer wire.PutWriter(fw)
	var req, resp wire.Frame
	for {
		if err := fr.Next(&req); err != nil {
			if wire.IsMalformed(err) {
				s.strDecodeErrs.Add(1)
				s.metStreamDecodeErrs.Inc()
			}
			return
		}
		s.strFramesIn.Add(1)
		s.metStreamFramesIn.Inc()
		resp.Reset()
		resp.Seq = req.Seq
		switch req.Type {
		case wire.TOpenReq:
			s.streamOpen(&req, &resp)
		case wire.TSuggestReq:
			s.streamSuggest(&req, &resp)
		case wire.TObserveReq:
			s.streamObserve(&req, &resp)
		case wire.TCloseReq:
			s.streamClose(&req, &resp)
		default:
			errFrame(&resp, http.StatusBadRequest, fmt.Sprintf("sessiond: unexpected %v frame", req.Type), 0)
		}
		if fw.WriteFrame(&resp) != nil {
			return
		}
		// Count before the flush hands the frame to the client, so a caller
		// holding its response always sees it counted.
		s.strFramesOut.Add(1)
		s.metStreamFramesOut.Inc()
		if rc.Flush() != nil {
			return
		}
	}
}

// streamOpen validates an OpenReq and runs the open state machine.
func (s *Service) streamOpen(req, resp *wire.Frame) {
	id := string(req.ID)
	if err := validID(id); err != nil {
		errFrame(resp, http.StatusBadRequest, err.Error(), 0)
		return
	}
	pr := params{
		resources: int(req.Resources),
		rmin:      req.RMin,
		seed:      req.Seed,
		init:      int(req.Init),
		policy:    policies.Canonical(string(req.Policy)),
	}
	if pr.init == 0 {
		pr.init = 5
	}
	if err := pr.validate(); err != nil {
		errFrame(resp, http.StatusBadRequest, err.Error(), 0)
		return
	}
	sess, res, err := s.open(id, pr)
	if err != nil {
		errFrame(resp, http.StatusBadRequest, err.Error(), 0)
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
	resp.Type = wire.TOpenResp
	if res.existing {
		resp.Flags |= wire.FlagExisting
	}
	if res.restored {
		resp.Flags |= wire.FlagRestored
	}
	resp.Evicted = append(resp.Evicted[:0], res.evicted...)
	resp.Observations = uint32(sess.observations())
}

// streamSuggest serves a suggest inline behind the admission control. The
// lookup touches the session (one fresh LRU tick) whether or not the
// suggest is then admitted.
func (s *Service) streamSuggest(req, resp *wire.Frame) {
	sess, ok := s.lookupBytes(req.ID)
	if !ok {
		s.metUnknown.Inc()
		errFrame(resp, http.StatusNotFound, fmt.Sprintf("sessiond: unknown session %q", req.ID), 0)
		return
	}
	res, ok := s.suggest(sess)
	if !ok {
		s.metRejects.Inc()
		errFrame(resp, http.StatusServiceUnavailable, "sessiond: suggest queue full, retry later", retryAfterSec)
		return
	}
	if res.err != nil {
		errFrame(resp, http.StatusInternalServerError, res.err.Error(), 0)
		return
	}
	s.metSuggests.Inc()
	resp.Type = wire.TSuggestResp
	resp.Observations = uint32(res.observations)
	resp.Point = res.point
}

// streamObserve validates an ObserveReq and applies it under its
// idempotency index: a replayed observe (already-applied index) is
// acknowledged without a second append, which is what makes a retry after a
// lost response safe on either carrier.
func (s *Service) streamObserve(req, resp *wire.Frame) {
	sess, ok := s.lookupBytes(req.ID)
	if !ok {
		s.metUnknown.Inc()
		errFrame(resp, http.StatusNotFound, fmt.Sprintf("sessiond: unknown session %q", req.ID), 0)
		return
	}
	if math.IsNaN(req.Cost) || math.IsInf(req.Cost, 0) {
		errFrame(resp, http.StatusUnprocessableEntity, fmt.Sprintf("sessiond: non-finite cost %v", req.Cost), 0)
		return
	}
	n, dirty, dup, err := sess.observeAt(req.Index, req.Point, req.Cost)
	if err != nil {
		errFrame(resp, http.StatusUnprocessableEntity, err.Error(), 0)
		return
	}
	s.metObserves.Inc()
	if !dup && s.cfg.SnapshotEvery > 0 && dirty >= s.cfg.SnapshotEvery {
		s.saveSession(sess)
	}
	resp.Type = wire.TObserveResp
	resp.Observations = uint32(n)
}

// observeAt records one (point, cost) pair with an idempotency index: the
// caller states which database slot (0-based) the observation should land
// in. An index below the current size is a replay of an observation the
// session already holds — acknowledged (dup=true) without a second append,
// so a client retrying an observe whose response was lost cannot
// double-apply it. An index beyond the current size is a gap (the client
// skipped an observation) and is rejected.
func (sess *session) observeAt(index uint32, point []float64, cost float64) (n, dirty int, dup bool, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	cur := sess.opt.Observations()
	if int64(index) < int64(cur) {
		return cur, sess.dirty, true, nil
	}
	if int64(index) > int64(cur) {
		return 0, 0, false, fmt.Errorf("sessiond: observe index %d ahead of session %s at %d observations", index, sess.id, cur)
	}
	n, dirty, err = sess.observeLocked(point, cost)
	return n, dirty, false, err
}

// streamClose tears a session down; closing an unknown session reports
// Closed=false rather than failing.
func (s *Service) streamClose(req, resp *wire.Frame) {
	closed := s.remove(string(req.ID))
	if closed {
		s.metCloses.Inc()
		s.metSessions.Set(float64(s.sessionCount()))
	}
	resp.Type = wire.TCloseResp
	resp.Closed = closed
}
