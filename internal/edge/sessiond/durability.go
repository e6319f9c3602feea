package sessiond

import (
	"fmt"
	"sort"
	"time"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
)

// SessionStore persists per-session snapshots as opaque blobs keyed by
// session id. snapstore.FileStore (durable, segmented log) and
// snapstore.MemStore (process lifetime) both satisfy it. Implementations
// must be safe for concurrent use; the service calls into the store while
// holding session (and sometimes shard) locks, so a store must never call
// back into the service — it is a lock leaf.
type SessionStore interface {
	// Put durably records id → blob, overwriting any previous snapshot.
	Put(id string, blob []byte) error
	// Get returns the stored blob, with ok=false when absent.
	Get(id string) ([]byte, bool, error)
	// Delete removes the snapshot; deleting an absent id is a no-op.
	Delete(id string) error
	// IDs lists stored ids in sorted order.
	IDs() ([]string, error)
	// SizeBytes reports the store's footprint (the statz gauge).
	SizeBytes() int64
	// Close releases resources; the store must not be used afterwards.
	Close() error
}

// DurabilityStats is the /session/statz durability block, maintained with
// plain atomics so it is correct even when no obs registry is attached.
type DurabilityStats struct {
	// Saves counts snapshots written (eviction, periodic, drain flush).
	Saves uint64 `json:"saves"`
	// SaveErrors counts failed snapshot writes (the session stays live and
	// dirty; the next trigger retries).
	SaveErrors uint64 `json:"save_errors"`
	// Restores counts sessions rebuilt from a snapshot instead of a client
	// history replay.
	Restores uint64 `json:"restores"`
	// Corrupt counts snapshots that failed decode or validation; each one
	// degraded to the replay-fallback path (a fresh session).
	Corrupt uint64 `json:"corrupt"`
	// StoreBytes is the store's current on-disk (or in-memory) footprint.
	StoreBytes int64 `json:"store_bytes"`
}

// snapshotLocked captures the session's durable state. Caller holds sess.mu.
func (sess *session) snapshotLocked() *snapshot {
	return &snapshot{
		id:  sess.id,
		p:   sess.p,
		opt: sess.opt.ExportState(),
	}
}

// saveSession snapshots a dirty session into the store. A clean session
// (nothing mutated since the last save) is skipped for free. Save errors
// leave the session live and dirty — the next trigger retries — and are
// surfaced only through counters, because every call site (eviction,
// drain, periodic) must keep serving regardless.
func (s *Service) saveSession(sess *session) {
	if s.cfg.Store == nil {
		return
	}
	sess.mu.Lock()
	if sess.dirty == 0 {
		sess.mu.Unlock()
		return
	}
	snap := sess.snapshotLocked()
	sess.dirty = 0
	sess.mu.Unlock()

	blob := encodeSnapshot(snap)
	err := s.storePut(snap.id, blob)
	if err != nil {
		// The state those bytes carried is still only in memory; mark the
		// session dirty again so a later trigger retries.
		sess.mu.Lock()
		sess.dirty++
		sess.mu.Unlock()
		s.durSaveErrs.Add(1)
		s.metSnapSaveErrs.Inc()
		return
	}
	s.durSaves.Add(1)
	s.metSnapSaves.Inc()
	s.metStoreBytes.Set(float64(s.cfg.Store.SizeBytes()))
}

// storePut writes one snapshot blob, timing the write when the latency
// histogram is attached.
func (s *Service) storePut(id string, blob []byte) error {
	if s.metSnapSaveMS == nil {
		return s.cfg.Store.Put(id, blob)
	}
	start := time.Now()
	err := s.cfg.Store.Put(id, blob)
	s.metSnapSaveMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return err
}

// timedRestore runs a restore closure, timing it when the latency histogram
// is attached.
func (s *Service) timedRestore(restore func()) {
	if s.metSnapRestoreMS == nil {
		restore()
		return
	}
	start := time.Now()
	restore()
	s.metSnapRestoreMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// restoreSession rebuilds a live session from a decoded snapshot: the
// policy resumes from its exported database and RNG word via the registry
// (GP-EI refits its surrogate once, at its next suggest), and the mesh
// cache starts empty.
func (s *Service) restoreSession(snap *snapshot) (*session, error) {
	dom := bo.Domain{N: snap.p.resources, RMin: snap.p.rmin}
	opt, err := policies.Restore(snap.p.policy, dom, boConfig(snap.p), snap.opt)
	if err != nil {
		return nil, fmt.Errorf("sessiond: restoring %s: %w", snap.id, err)
	}
	return &session{
		id:     snap.id,
		p:      snap.p,
		opt:    opt,
		meshes: newMeshCache(s.cfg.MeshCacheCap),
	}, nil
}

// loadSession fetches and rebuilds one session from the store. ok=false
// with a nil error means no snapshot exists; a corrupt or unreadable
// snapshot is counted, deleted (it will never decode better), and reported
// as ok=false so the caller falls back to a fresh session — the client's
// replay path recovers the history.
func (s *Service) loadSession(id string) (*session, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	blob, ok, err := s.cfg.Store.Get(id)
	if err != nil || !ok {
		return nil, false
	}
	var sess *session
	restore := func() {
		snap, derr := decodeSnapshot(blob)
		if derr == nil && snap.id != id {
			derr = fmt.Errorf("sessiond: snapshot for %q stored under %q", snap.id, id)
		}
		if derr == nil {
			sess, derr = s.restoreSession(snap)
		}
		if derr != nil {
			sess = nil
			s.durCorrupt.Add(1)
			s.metSnapCorrupt.Inc()
			_ = s.cfg.Store.Delete(id)
		}
	}
	s.timedRestore(restore)
	if sess == nil {
		return nil, false
	}
	s.durRestores.Add(1)
	s.metSnapRestores.Inc()
	return sess, true
}

// warmRestart re-hydrates sessions from the store at startup, in sorted id
// order (deterministic shard ticks), respecting each shard's capacity —
// sessions beyond a full shard stay on disk and restore lazily on their
// next open. Corrupt snapshots are skipped (counted and deleted); a warm
// restart never fails the boot.
func (s *Service) warmRestart() error {
	ids, err := s.cfg.Store.IDs()
	if err != nil {
		return fmt.Errorf("sessiond: warm restart: listing store: %w", err)
	}
	for _, id := range ids {
		if validID(id) != nil {
			continue
		}
		sess, ok := s.loadSession(id)
		if !ok {
			continue
		}
		sh := s.shardFor(id)
		sh.mu.Lock()
		if len(sh.sessions) < s.cfg.SessionsPerShard {
			sh.tick++
			sess.lastTouch = sh.tick
			sh.sessions[id] = sess
		}
		sh.mu.Unlock()
	}
	s.metStoreBytes.Set(float64(s.cfg.Store.SizeBytes()))
	return nil
}

// Flush snapshots every dirty session (sorted ids within each shard, shards
// in index order — a deterministic pass). This is the SIGTERM drain hook:
// after the HTTP listener stops and the last in-flight request completes,
// Flush makes the store agree with memory before the process exits.
func (s *Service) Flush() {
	if s.cfg.Store == nil {
		return
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sessions := make([]*session, 0, len(sh.sessions))
		for _, sess := range sh.sessions {
			sessions = append(sessions, sess)
		}
		sh.mu.Unlock()
		sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
		for _, sess := range sessions {
			s.saveSession(sess)
		}
	}
}

// Durability returns the current durability counters (zero-valued when no
// store is configured).
func (s *Service) Durability() DurabilityStats {
	d := DurabilityStats{
		Saves:      s.durSaves.Load(),
		SaveErrors: s.durSaveErrs.Load(),
		Restores:   s.durRestores.Load(),
		Corrupt:    s.durCorrupt.Load(),
	}
	if s.cfg.Store != nil {
		d.StoreBytes = s.cfg.Store.SizeBytes()
	}
	return d
}
