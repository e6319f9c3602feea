// Package sessiond is the edge service: it serves both halves of the
// paper's Figure 3 edge — mesh decimation and the Bayesian-optimization
// step — and keeps one HBO session per connected client alive server-side:
// its GP history (the BO database and the incrementally extended Cholesky
// factorization) and a per-session mesh cache over the shared object
// catalog. A session is one activation's BO run: the client's backend opens
// a fresh session at each activation's first remote suggest.
//
// The store is sharded and lock-striped: a session's ID hashes to one of
// Config.Shards shards, each holding an independent mutex, session map, and
// suggest admission count, so unrelated sessions never contend. Within a
// shard, capacity is bounded by LRU eviction over a logical touch tick
// (never the wall clock — eviction order is a pure function of the request
// sequence); ties, should a tick ever repeat, evict the lexicographically
// smallest ID. An admission controller bounds each shard's suggests in
// flight: past Config.QueueBound a suggest is rejected with 503 and a
// Retry-After hint instead of waiting unboundedly, and the edge client's
// retry loop honors that hint.
//
// Every session op runs on the goroutine that decoded its frame; the
// service starts no goroutines of its own. Because every session owns a
// persistent optimizer, each suggestion is an O(n²) incremental Cholesky
// extension rather than a from-scratch O(n³) refit of the uploaded history.
//
// Determinism contract: a session's suggestion stream is a pure function of
// its (seed, init, observation sequence) — shard placement and concurrent
// traffic from other sessions cannot perturb it, because every
// session draws from its own RNG and GP state. The package is listed in
// detlint's determinism-critical set and reads no wall clock outside
// obs-gated instrumentation.
package sessiond

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/sim"
)

// Decimator produces a decimated mesh from the shared object catalog.
// *edge.Server implements it; per-session mesh caches sit in front of it.
// The service always passes fast == false (the paper's quadric edge
// collapse).
type Decimator interface {
	Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error)
}

// Server-side bounds, mirroring package edge's hardening constants.
const (
	// maxResources bounds the BO domain dimensionality per session.
	maxResources = 64
	// maxInitSamples bounds a session's init-phase budget.
	maxInitSamples = 100
	// maxSessionObservations bounds one session's GP database.
	maxSessionObservations = 10000
	// maxIDLen bounds session identifiers.
	maxIDLen = 128
	// retryAfterSec is the Retry-After hint (whole seconds) sent with
	// admission rejections.
	retryAfterSec = 1
)

// Config tunes the session store and the admission controller.
type Config struct {
	// Shards is the number of lock stripes.
	Shards int
	// SessionsPerShard caps each shard's session count; opening a session
	// in a full shard evicts that shard's least-recently-used session.
	SessionsPerShard int
	// QueueBound caps each shard's suggests in flight; beyond it the
	// admission controller rejects with 503 + Retry-After.
	QueueBound int
	// MeshCacheCap caps each session's decimated-mesh cache (entries).
	MeshCacheCap int
	// Store, when non-nil, persists session snapshots: eviction saves
	// instead of dropping state, open restores from snapshot (full replay
	// remains the corrupt/missing fallback), and New performs a warm
	// restart from whatever the store holds. The caller owns the store's
	// lifecycle (Close); a nil Store reproduces the pre-durability behavior
	// exactly.
	Store SessionStore
	// SnapshotEvery additionally snapshots a session after this many
	// mutations since its last save (observations and served suggests both
	// count). Zero snapshots only on eviction and drain — cheapest, but a
	// crash loses everything since the last eviction.
	SnapshotEvery int
}

// DefaultConfig returns production-shaped defaults: 8 shards of up to 64
// sessions, 32 suggests in flight per shard, and 8 cached decimations per
// session.
func DefaultConfig() Config {
	return Config{
		Shards:           8,
		SessionsPerShard: 64,
		QueueBound:       32,
		MeshCacheCap:     8,
	}
}

func (c Config) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("sessiond: Shards %d must be >= 1", c.Shards)
	}
	if c.SessionsPerShard < 1 {
		return fmt.Errorf("sessiond: SessionsPerShard %d must be >= 1", c.SessionsPerShard)
	}
	if c.QueueBound < 1 {
		return fmt.Errorf("sessiond: QueueBound %d must be >= 1", c.QueueBound)
	}
	if c.MeshCacheCap < 1 {
		return fmt.Errorf("sessiond: MeshCacheCap %d must be >= 1", c.MeshCacheCap)
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("sessiond: SnapshotEvery %d must be >= 0", c.SnapshotEvery)
	}
	if c.SnapshotEvery > 0 && c.Store == nil {
		return fmt.Errorf("sessiond: SnapshotEvery set without a Store")
	}
	return nil
}

// params is the immutable per-session configuration fixed at open time.
// policy is stored in canonical form (policies.Canonical): the GP-EI
// default is "", so pre-arena clients and ones naming "gp-ei" explicitly
// compare equal under the idempotent-open == check.
type params struct {
	resources int
	rmin      float64
	seed      uint64
	init      int
	policy    string
}

func (p params) validate() error {
	if p.resources < 1 || p.resources > maxResources {
		return fmt.Errorf("sessiond: resources %d out of [1,%d]", p.resources, maxResources)
	}
	if p.rmin < 0 || p.rmin >= 1 {
		return fmt.Errorf("sessiond: rmin %v out of [0,1)", p.rmin)
	}
	if p.init < 1 || p.init > maxInitSamples {
		return fmt.Errorf("sessiond: init %d out of [1,%d]", p.init, maxInitSamples)
	}
	if p.policy != policies.Canonical(p.policy) {
		return fmt.Errorf("sessiond: policy %q not canonical", p.policy)
	}
	if !policies.Valid(p.policy) {
		return fmt.Errorf("sessiond: unknown policy %q (have %v)", p.policy, policies.Names())
	}
	return nil
}

// session is one client's server-side HBO state. The shard mutex guards its
// membership and lastTouch; the session's own mutex serializes optimizer
// and cache access, so a misbehaving client issuing concurrent calls for
// one session cannot corrupt GP state.
type session struct {
	id string
	p  params

	// lastTouch is the logical LRU tick, written under the shard mutex.
	lastTouch uint64

	mu     sync.Mutex
	opt    bo.Policy
	meshes *meshCache
	// dirty counts mutations (observations and served suggests — both move
	// optimizer state) since the last snapshot save; zero means the store
	// already holds this session's exact state.
	dirty int
}

// Service is the session store plus its HTTP surface. Safe for concurrent
// use once built; attach an observer before serving traffic.
type Service struct {
	cfg    Config
	dec    Decimator
	shards []*shard

	// Observability instruments; nil (no-op) unless SetObserver is called.
	metOpens         *obs.Counter
	metReopens       *obs.Counter
	metCloses        *obs.Counter
	metEvictions     *obs.Counter
	metRejects       *obs.Counter
	metUnknown       *obs.Counter
	metSuggests      *obs.Counter
	metObserves      *obs.Counter
	metDecimates     *obs.Counter
	metMeshHits      *obs.Counter
	metMeshMisses    *obs.Counter
	metSessions      *obs.Gauge
	metQueueHighTide *obs.Gauge
	metSnapSaves     *obs.Counter
	metSnapSaveErrs  *obs.Counter
	metSnapRestores  *obs.Counter
	metSnapCorrupt   *obs.Counter
	metSnapSaveMS    *obs.Histogram
	metSnapRestoreMS *obs.Histogram
	metStoreBytes    *obs.Gauge

	// Stream-surface instruments (the binary /session/stream route).
	metStreamOpens      *obs.Counter
	metStreamFramesIn   *obs.Counter
	metStreamFramesOut  *obs.Counter
	metStreamDecodeErrs *obs.Counter
	metStreamsOpen      *obs.Gauge
	metStreamDurMS      *obs.Histogram

	// Durability counters kept as plain atomics so /session/statz is
	// correct without any registry attached.
	durSaves    atomic.Uint64
	durSaveErrs atomic.Uint64
	durRestores atomic.Uint64
	durCorrupt  atomic.Uint64

	// Stream counters, same pattern: statz stays correct registry or not.
	strOpen       atomic.Int64
	strFramesIn   atomic.Uint64
	strFramesOut  atomic.Uint64
	strDecodeErrs atomic.Uint64
}

// New builds the service. dec may
// be nil, which disables the /session/decimate route. With a Store
// configured, New performs a warm restart first: every stored snapshot is
// re-hydrated into its shard (up to capacity; the rest restore lazily on
// open), so a restarted process serves its old sessions bit-identically.
func New(cfg Config, dec Decimator) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, dec: dec, shards: make([]*shard, cfg.Shards)}
	for i := range s.shards {
		s.shards[i] = &shard{sessions: make(map[string]*session)}
	}
	if cfg.Store != nil {
		if err := s.warmRestart(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SetObserver attaches a metrics registry: open/close/eviction and
// admission-rejection counters, suggest/observe/decimate traffic, and live
// session/in-flight gauges. Call before serving; passing nil
// detaches.
func (s *Service) SetObserver(reg *obs.Registry) {
	s.metOpens = reg.Counter("sessiond.opens")
	s.metReopens = reg.Counter("sessiond.reopens")
	s.metCloses = reg.Counter("sessiond.closes")
	s.metEvictions = reg.Counter("sessiond.evictions")
	s.metRejects = reg.Counter("sessiond.admission_rejects")
	s.metUnknown = reg.Counter("sessiond.unknown_session")
	s.metSuggests = reg.Counter("sessiond.suggests")
	s.metObserves = reg.Counter("sessiond.observes")
	s.metDecimates = reg.Counter("sessiond.decimates")
	s.metMeshHits = reg.Counter("sessiond.mesh_cache_hits")
	s.metMeshMisses = reg.Counter("sessiond.mesh_cache_misses")
	s.metSessions = reg.Gauge("sessiond.sessions")
	s.metQueueHighTide = reg.Gauge("sessiond.queue_high_tide")
	s.metSnapSaves = reg.Counter("sessiond.snapshot_saves")
	s.metSnapSaveErrs = reg.Counter("sessiond.snapshot_save_errors")
	s.metSnapRestores = reg.Counter("sessiond.snapshot_restores")
	s.metSnapCorrupt = reg.Counter("sessiond.snapshot_corrupt")
	s.metStoreBytes = reg.Gauge("sessiond.store_bytes")
	s.metStreamOpens = reg.Counter("sessiond.stream_opens")
	s.metStreamFramesIn = reg.Counter("sessiond.stream_frames_in")
	s.metStreamFramesOut = reg.Counter("sessiond.stream_frames_out")
	s.metStreamDecodeErrs = reg.Counter("sessiond.stream_decode_errors")
	s.metStreamsOpen = reg.Gauge("sessiond.streams_open")
	s.metSnapSaveMS = reg.Histogram("sessiond.snapshot_save_ms", obs.LatencyBucketsMS)
	s.metSnapRestoreMS = reg.Histogram("sessiond.snapshot_restore_ms", obs.LatencyBucketsMS)
	s.metStreamDurMS = reg.Histogram("sessiond.stream_open_ms", obs.LatencyBucketsMS)
}

// Close is a no-op: every session op runs on the goroutine that read it,
// so the service owns no goroutines to stop, and it keeps serving after
// Close.
func (s *Service) Close() {}

// boConfig is the single source of truth for how a session's parameters map
// onto an optimizer configuration. Live creation (newSession) and snapshot
// restore must agree exactly, or a restored optimizer would diverge from the
// one that was exported.
func boConfig(p params) bo.Config {
	cfg := bo.DefaultConfig()
	cfg.InitSamples = p.init
	return cfg
}

// newSession builds a fresh session for the given parameters, resolving the
// optimizer through the policy registry (p.policy "" is the GP-EI default).
func (s *Service) newSession(id string, p params) (*session, error) {
	dom := bo.Domain{N: p.resources, RMin: p.rmin}
	opt, err := policies.New(p.policy, dom, boConfig(p), sim.NewRNG(p.seed))
	if err != nil {
		return nil, err
	}
	return &session{
		id:     id,
		p:      p,
		opt:    opt,
		meshes: newMeshCache(s.cfg.MeshCacheCap),
	}, nil
}
