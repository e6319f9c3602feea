package sessiond

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
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
// Concurrency shape: the handler goroutine reads and dispatches frames —
// opens, observes, and closes run inline (they are cheap, and inline
// execution preserves the per-session operation order the determinism
// contract needs); suggests are enqueued into the shard batch workers,
// behind the admission control. A single writer goroutine drains an
// ordered queue of response slots, waiting on each suggest's worker reply
// in turn, so responses leave in exactly the order their requests arrived —
// a stronger guarantee than the per-session ordering clients rely on —
// while queued suggests from many sessions still batch in the shard
// workers concurrently.
const (
	// streamOutDepth bounds responses in flight between the reader and the
	// writer goroutine; a full queue blocks frame intake (backpressure)
	// instead of buffering unboundedly.
	streamOutDepth = 256
	// streamWriteBuf sizes the writer's coalescing buffer: pipelined
	// responses share syscalls, and the writer flushes whenever the queue
	// goes momentarily idle.
	streamWriteBuf = 4096
)

// streamPending is one slot in a stream's ordered response queue: either a
// fully built response frame, or (for suggests) a reply channel the writer
// waits on before building the frame. Slots are pooled; the embedded
// suggest job's reply channel is allocated once and reused.
type streamPending struct {
	f       wire.Frame
	job     suggestJob
	suggest bool
}

var pendingPool = sync.Pool{New: func() any {
	return &streamPending{job: suggestJob{reply: make(chan suggestResult, 1)}}
}}

func getPending() *streamPending {
	p := pendingPool.Get().(*streamPending)
	p.f.Reset()
	p.suggest = false
	p.job.sess = nil
	return p
}

func putPending(p *streamPending) { pendingPool.Put(p) }

// errFrame turns p into an application-level error response. The status is
// an HTTP status code, so the client maps it onto the same typed error a
// non-2xx response produces (404 readmit, 503 + Retry-After, 422).
func errFrame(p *streamPending, status int, msg string, retryAfter uint32) {
	p.f.Type = wire.TError
	p.f.Status = uint16(status)
	p.f.RetryAfterSec = retryAfter
	p.f.Msg = append(p.f.Msg[:0], msg...)
}

// handleStream serves one session stream. Registered without the guard
// middleware: a stream is long-lived by design, so the per-request timeout
// and body cap do not apply — per-frame bounds in the wire codec and the
// response-queue backpressure bound its resource use instead.
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

	out := make(chan *streamPending, streamOutDepth)
	writerDone := make(chan struct{})
	go s.streamWriter(w, rc, out, writerDone)
	s.streamRead(r.Body, out)
	close(out)
	<-writerDone

	s.metStreamsOpen.Set(float64(s.strOpen.Add(-1)))
	if s.metStreamDurMS != nil {
		s.metStreamDurMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

// streamRead is the handler-side frame loop: decode, dispatch, enqueue the
// response slot. A clean EOF (client closed its send side) ends the stream;
// a framing error also ends it — frames are byte-positional, so after one
// bad frame the stream cannot resync and terminating is the only safe move.
// Only codec-level rejections count as decode errors: a connection dropped
// mid-frame is ordinary churn, not corruption worth alerting on.
func (s *Service) streamRead(body io.Reader, out chan<- *streamPending) {
	fr := wire.GetReader(body)
	defer wire.PutReader(fr)
	var f wire.Frame
	for {
		if err := fr.Next(&f); err != nil {
			if wire.IsMalformed(err) {
				s.strDecodeErrs.Add(1)
				s.metStreamDecodeErrs.Inc()
			}
			return
		}
		s.strFramesIn.Add(1)
		s.metStreamFramesIn.Inc()
		p := getPending()
		p.f.Seq = f.Seq
		switch f.Type {
		case wire.TOpenReq:
			s.streamOpen(&f, p)
		case wire.TSuggestReq:
			s.streamSuggest(&f, p)
		case wire.TObserveReq:
			s.streamObserve(&f, p)
		case wire.TCloseReq:
			s.streamClose(&f, p)
		default:
			errFrame(p, http.StatusBadRequest, fmt.Sprintf("sessiond: unexpected %v frame", f.Type), 0)
		}
		out <- p
	}
}

// streamWriter drains the ordered response queue onto the connection. Only
// this goroutine writes to w after the handler commits the headers, so no
// write lock is needed; it flushes whenever the queue goes idle so a lone
// caller never waits on a buffer and a pipelined burst still coalesces.
func (s *Service) streamWriter(w io.Writer, rc *http.ResponseController, out <-chan *streamPending, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(w, streamWriteBuf)
	fw := wire.GetWriter(bw)
	defer wire.PutWriter(fw)
	var werr error
	for p := range out {
		if p.suggest {
			// The shard worker serves every accepted job, so this receive
			// always completes; after a write error the loop keeps draining
			// replies so no worker output is left dangling.
			res := <-p.job.reply
			if res.err != nil {
				errFrame(p, http.StatusInternalServerError, res.err.Error(), 0)
			} else {
				s.metSuggests.Inc()
				p.f.Type = wire.TSuggestResp
				p.f.Observations = uint32(res.observations)
				p.f.Point = res.point
			}
		}
		if werr == nil {
			if err := fw.WriteFrame(&p.f); err != nil {
				werr = err
			} else {
				s.strFramesOut.Add(1)
				s.metStreamFramesOut.Inc()
				if len(out) == 0 {
					if err := bw.Flush(); err != nil {
						werr = err
					} else {
						_ = rc.Flush()
					}
				}
			}
		}
		putPending(p)
	}
}

// streamOpen validates an OpenReq and runs the open state machine.
func (s *Service) streamOpen(req *wire.Frame, p *streamPending) {
	id := string(req.ID)
	if err := validID(id); err != nil {
		errFrame(p, http.StatusBadRequest, err.Error(), 0)
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
		errFrame(p, http.StatusBadRequest, err.Error(), 0)
		return
	}
	sess, res, err := s.open(id, pr)
	if err != nil {
		errFrame(p, http.StatusBadRequest, err.Error(), 0)
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
	p.f.Type = wire.TOpenResp
	if res.existing {
		p.f.Flags |= wire.FlagExisting
	}
	if res.restored {
		p.f.Flags |= wire.FlagRestored
	}
	if !sess.durable {
		p.f.Flags |= wire.FlagEphemeral
	}
	p.f.Evicted = append(p.f.Evicted[:0], res.evicted...)
	p.f.Observations = uint32(sess.observations())
}

// streamSuggest enqueues into the shard batch workers behind the admission
// control; the writer goroutine completes the response when the worker
// replies.
func (s *Service) streamSuggest(req *wire.Frame, p *streamPending) {
	sess, ok := s.peekBytes(req.ID)
	if !ok {
		s.metUnknown.Inc()
		errFrame(p, http.StatusNotFound, fmt.Sprintf("sessiond: unknown session %q", req.ID), 0)
		return
	}
	p.job.sess = sess
	if !s.enqueueSuggest(sess, &p.job) {
		s.metRejects.Inc()
		errFrame(p, http.StatusServiceUnavailable, "sessiond: suggest queue full, retry later", uint32(s.cfg.RetryAfterSec))
		return
	}
	p.suggest = true
}

// streamObserve validates an ObserveReq and applies it under its
// idempotency index: a replayed observe (already-applied index) is
// acknowledged without a second append, which is what makes a retry after a
// lost response safe on either carrier.
func (s *Service) streamObserve(req *wire.Frame, p *streamPending) {
	sess, ok := s.lookupBytes(req.ID)
	if !ok {
		s.metUnknown.Inc()
		errFrame(p, http.StatusNotFound, fmt.Sprintf("sessiond: unknown session %q", req.ID), 0)
		return
	}
	if math.IsNaN(req.Cost) || math.IsInf(req.Cost, 0) {
		errFrame(p, http.StatusUnprocessableEntity, fmt.Sprintf("sessiond: non-finite cost %v", req.Cost), 0)
		return
	}
	n, dirty, dup, err := sess.observeAt(req.Index, req.Point, req.Cost)
	if err != nil {
		errFrame(p, http.StatusUnprocessableEntity, err.Error(), 0)
		return
	}
	s.metObserves.Inc()
	if !dup && s.cfg.SnapshotEvery > 0 && dirty >= s.cfg.SnapshotEvery {
		s.saveSession(sess)
	}
	p.f.Type = wire.TObserveResp
	p.f.Observations = uint32(n)
}

// observeAt records one (point, cost) pair with an idempotency index: the
// caller states which database slot (0-based) the observation should land
// in. wire.NoIndex skips the check and always appends. An index below the
// current size is a replay of an observation the session already holds —
// acknowledged (dup=true) without a second append, so a client retrying an
// observe whose response was lost cannot double-apply it. An index beyond the current
// size is a gap (the client skipped an observation) and is rejected.
func (sess *session) observeAt(index uint32, point []float64, cost float64) (n, dirty int, dup bool, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if index != wire.NoIndex {
		cur := sess.opt.Observations()
		if int64(index) < int64(cur) {
			return cur, sess.dirty, true, nil
		}
		if int64(index) > int64(cur) {
			return 0, 0, false, fmt.Errorf("sessiond: observe index %d ahead of session %s at %d observations", index, sess.id, cur)
		}
	}
	n, dirty, err = sess.observeLocked(point, cost)
	return n, dirty, false, err
}

// streamClose tears a session down; closing an unknown session reports
// Closed=false rather than failing.
func (s *Service) streamClose(req *wire.Frame, p *streamPending) {
	closed := s.remove(string(req.ID))
	if closed {
		s.metCloses.Inc()
		s.metSessions.Set(float64(s.sessionCount()))
	}
	p.f.Type = wire.TCloseResp
	p.f.Closed = closed
}
