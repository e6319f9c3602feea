package sessiond

import (
	"fmt"
	"math"
)

// suggestJob is one queued suggest call; reply is buffered so the worker
// never blocks on a caller that gave up waiting.
type suggestJob struct {
	sess  *session
	reply chan suggestResult
}

type suggestResult struct {
	point        []float64
	observations int
	err          error
}

// enqueueSuggest applies the admission control: the job is accepted only if
// the shard's queue has room right now. ok=false is the caller's cue to
// reject with Retry-After.
func (s *Service) enqueueSuggest(sess *session, job *suggestJob) bool {
	sh := s.shardFor(sess.id)
	select {
	case sh.queue <- job:
		if depth := float64(len(sh.queue)); depth > s.metQueueHighTide.Value() {
			s.metQueueHighTide.Set(depth)
		}
		return true
	default:
		return false
	}
}

// worker drains one shard's suggest queue in FIFO batch passes: the
// blocking receive picks up the first waiting job, then up to MaxBatch−1
// more are taken without blocking. The whole pass shares one LRU tick (one
// shard-lock acquisition per pass, and the source of eviction ties), then
// each job runs against its own session's optimizer.
//
//hbo:noalloc
func (s *Service) worker(sh *shard) {
	for job := range sh.queue {
		batch := make([]*suggestJob, 1, s.cfg.MaxBatch) //hbo:allowalloc one slice per batch pass, amortized over up to MaxBatch jobs
		batch[0] = job
	fill:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case j, ok := <-sh.queue:
				if !ok {
					break fill
				}
				batch = append(batch, j)
			default:
				break fill
			}
		}
		sh.mu.Lock()
		sh.tick++
		t := sh.tick
		for _, j := range batch {
			j.sess.lastTouch = t
		}
		sh.mu.Unlock()
		s.metBatches.Inc()
		s.metBatchSize.Observe(float64(len(batch)))
		for _, j := range batch {
			j.reply <- suggestOne(j.sess)
		}
	}
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
	sess.suggests++
	sess.dirty++ // the suggest advanced the RNG: the stored snapshot is stale
	return suggestResult{point: point, observations: sess.opt.Observations()}
}

// observeLocked records one (point, cost) pair into the session's GP
// history and activation window, returning the database size and the
// session's mutation count since its last snapshot (the periodic-snapshot
// trigger input). The caller holds sess.mu (observeAt checks the
// idempotency index under the same lock acquisition as the append).
//
//hbo:noalloc
func (sess *session) observeLocked(point []float64, cost float64) (int, int, error) {
	if sess.opt.Observations() >= maxSessionObservations {
		return 0, 0, fmt.Errorf("sessiond: session %s at the %d-observation limit", sess.id, maxSessionObservations)
	}
	if err := sess.opt.Observe(point, cost); err != nil {
		return 0, 0, err
	}
	sess.observes++
	sess.dirty++
	sess.window = append(sess.window, -cost)
	if len(sess.window) > windowCap {
		sess.window = sess.window[len(sess.window)-windowCap:]
	}
	return sess.opt.Observations(), sess.dirty, nil
}

// observations reads the session's current database size.
func (sess *session) observations() int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.opt.Observations()
}

// windowStats summarizes the activation window: sample count and the mean
// of the retained recent rewards (NaN-free by construction — Observe
// rejects non-finite costs).
func (sess *session) windowStats() (n int, mean float64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if len(sess.window) == 0 {
		return 0, math.NaN()
	}
	sum := 0.0
	for _, v := range sess.window {
		sum += v
	}
	return len(sess.window), sum / float64(len(sess.window))
}
