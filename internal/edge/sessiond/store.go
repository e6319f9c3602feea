package sessiond

import (
	"sync"
	"sync/atomic"
)

// shard is one lock stripe of the session store: an independent mutex,
// session map, logical touch clock, and suggest admission count.
type shard struct {
	mu       sync.Mutex
	sessions map[string]*session
	// tick is the logical LRU clock: every touching operation takes a
	// fresh tick.
	tick uint64
	// inFlight counts admitted suggests not yet answered (the admission
	// bound's input and /session/statz's queue_depth).
	inFlight atomic.Int64
}

// FNV-1a parameters, identical to hash/fnv's 32-bit variant. Inlined so the
// hot request paths hash without the hash.Hash allocation — shard placement
// must stay bit-identical to the original fnv.New32a mapping, because
// placement decides eviction order and the determinism suite pins both.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

//hbo:noalloc
func fnv32aString(id string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= fnvPrime32
	}
	return h
}

//hbo:noalloc
func fnv32aBytes(id []byte) uint32 {
	h := uint32(fnvOffset32)
	for _, c := range id {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return h
}

// shardFor maps a session ID onto its stripe (FNV-1a).
func (s *Service) shardFor(id string) *shard {
	return s.shards[int(fnv32aString(id))%len(s.shards)]
}

// shardForBytes is shardFor for an ID still aliasing a decode buffer.
func (s *Service) shardForBytes(id []byte) *shard {
	return s.shards[int(fnv32aBytes(id))%len(s.shards)]
}

// openResult reports what the open-path state machine did.
type openResult struct {
	existing bool   // session was live with identical parameters, kept as-is
	restored bool   // session was re-hydrated from a snapshot
	evicted  string // LRU victim this open displaced ("" when none)
}

// open creates (or re-finds) a session. An existing session with identical
// parameters is returned as-is — an idempotent open, so a client retrying a
// lost open response cannot destroy its own GP history; changed parameters
// rebuild the session from scratch. A session absent from memory but
// present in the store is restored from its snapshot — the replay
// path is needed only when the snapshot is missing or corrupt. A full shard
// evicts its LRU victim first; with a store configured the victim's state
// is snapshotted instead of dropped, so eviction demotes a session to disk
// rather than destroying it.
func (s *Service) open(id string, p params) (sess *session, res openResult, err error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.sessions[id]; ok {
		sh.tick++
		cur.lastTouch = sh.tick
		if cur.p == p {
			return cur, openResult{existing: true}, nil
		}
		// Parameter change: replace in place (does not count against
		// capacity, no eviction needed). Any stored snapshot describes the
		// old parameters and will never be wanted again.
		if s.cfg.Store != nil {
			_ = s.cfg.Store.Delete(id) //lint:allow locklint store is a lock leaf (DESIGN.md §16); deleting outside sh.mu would race a concurrent reopen restoring the stale snapshot
		}
		fresh, err := s.newSession(id, p)
		if err != nil {
			return nil, openResult{}, err
		}
		fresh.lastTouch = sh.tick
		sh.sessions[id] = fresh
		return fresh, openResult{}, nil
	}
	if restored, ok := s.loadSession(id); ok { //lint:allow locklint restore must happen under sh.mu or two racing opens could each build the session and one GP history would be lost
		if restored.p == p {
			sess, res.restored = restored, true
		} else {
			// Stale snapshot for different parameters: discard it.
			_ = s.cfg.Store.Delete(id) //lint:allow locklint store is a lock leaf (DESIGN.md §16); same atomicity argument as the restore above
		}
	}
	if sess == nil {
		sess, err = s.newSession(id, p)
		if err != nil {
			return nil, openResult{}, err
		}
	}
	if len(sh.sessions) >= s.cfg.SessionsPerShard {
		if victim := sh.evictLRULocked(); victim != nil {
			res.evicted = victim.id
			// Demote, don't destroy: the victim's next open restores it.
			s.saveSession(victim) //lint:allow locklint saving after releasing sh.mu would let a concurrent open of the victim id create a fresh session that this stale save then clobbers
		}
	}
	sh.tick++
	sess.lastTouch = sh.tick
	sh.sessions[id] = sess
	return sess, res, nil
}

// evictLRULocked removes and returns the shard's least-recently-used
// session: the smallest lastTouch tick, ties broken by the
// lexicographically smallest ID. Every touch takes a fresh tick, so live
// sessions of one shard do not tie; the ID rule keeps the order total
// anyway, so eviction stays a deterministic function of the request
// sequence whatever stamps the ticks. Callers hold sh.mu.
func (sh *shard) evictLRULocked() *session {
	var victim *session
	for _, cand := range sh.sessions {
		if victim == nil {
			victim = cand
			continue
		}
		if cand.lastTouch < victim.lastTouch ||
			(cand.lastTouch == victim.lastTouch && cand.id < victim.id) {
			victim = cand
		}
	}
	if victim == nil {
		return nil
	}
	delete(sh.sessions, victim.id)
	return victim
}

// lookup finds a session and touches it (one fresh tick).
func (s *Service) lookup(id string) (*session, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sess, ok := sh.sessions[id]
	if !ok {
		return nil, false
	}
	sh.tick++
	sess.lastTouch = sh.tick
	return sess, true
}

// lookupBytes is lookup for an ID aliasing a decode buffer: the
// map index through string(id) compiles to a no-copy lookup, so the stream
// hot path never materializes the ID as a string.
//
//hbo:noalloc
func (s *Service) lookupBytes(id []byte) (*session, bool) {
	sh := s.shardForBytes(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sess, ok := sh.sessions[string(id)]
	if !ok {
		return nil, false
	}
	sh.tick++
	sess.lastTouch = sh.tick
	return sess, true
}

// remove deletes a session; reports whether it existed in memory or in the
// store. An explicit close is the one path that destroys durable state —
// the client said it is done, so the snapshot goes too.
func (s *Service) remove(id string) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.sessions[id]
	delete(sh.sessions, id)
	if s.cfg.Store != nil {
		if _, stored, _ := s.cfg.Store.Get(id); stored { //lint:allow locklint close must destroy memory and snapshot atomically under sh.mu or a racing open could resurrect the closed session
			ok = true
			_ = s.cfg.Store.Delete(id) //lint:allow locklint part of the same atomic close; store is a lock leaf (DESIGN.md §16)
		}
	}
	return ok
}

// sessionCount sums live sessions across shards.
func (s *Service) sessionCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.sessions)
		sh.mu.Unlock()
	}
	return n
}
