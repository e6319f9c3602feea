package sessiond

import "fmt"

// suggestResult is one served suggest: the point and the session's
// database size, or the optimizer's error.
type suggestResult struct {
	point        []float64
	observations int
	err          error
}

// suggest serves one suggest inline on the caller's goroutine behind the
// admission control: the shard's in-flight count is checked against
// QueueBound, and ok=false is the caller's cue to reject with 503 and
// Retry-After. An admitted suggest holds its slot until its optimizer step
// returns, including any wait for the session lock, so at most
// Shards×QueueBound suggests run or wait at once.
//
//hbo:noalloc
func (s *Service) suggest(sess *session) (res suggestResult, ok bool) {
	sh := s.shardFor(sess.id)
	n := sh.inFlight.Add(1)
	defer sh.inFlight.Add(-1)
	if n > int64(s.cfg.QueueBound) {
		return suggestResult{}, false
	}
	if depth := float64(n); depth > s.metQueueHighTide.Value() {
		s.metQueueHighTide.Set(depth)
	}
	return suggestOne(sess), true
}

// suggestOne serves one suggest against the session's persistent optimizer.
//
//hbo:noalloc
func suggestOne(sess *session) suggestResult {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	point, err := sess.opt.Next()
	if err != nil {
		return suggestResult{err: fmt.Errorf("sessiond: suggest for %s: %w", sess.id, err)}
	}
	sess.dirty++ // the suggest advanced the RNG: the stored snapshot is stale
	return suggestResult{point: point, observations: sess.opt.Observations()}
}

// observeLocked records one (point, cost) pair into the session's GP
// history, returning the database size and the session's mutation count
// since its last snapshot (the periodic-snapshot trigger input). The caller
// holds sess.mu (observeAt checks the idempotency index under the same lock
// acquisition as the append).
//
//hbo:noalloc
func (sess *session) observeLocked(point []float64, cost float64) (int, int, error) {
	if sess.opt.Observations() >= maxSessionObservations {
		return 0, 0, fmt.Errorf("sessiond: session %s at the %d-observation limit", sess.id, maxSessionObservations)
	}
	if err := sess.opt.Observe(point, cost); err != nil {
		return 0, 0, err
	}
	sess.dirty++
	return sess.opt.Observations(), sess.dirty, nil
}

// observations reads the session's current database size.
func (sess *session) observations() int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.opt.Observations()
}
