package sessiond

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
	"github.com/mar-hbo/hbo/internal/sim"
)

// driveCost is the deterministic synthetic objective the durability tests
// evaluate suggestions against on both the session and its mirror.
func driveCost(point []float64) float64 {
	c := 0.0
	for i, v := range point {
		c += float64(i+1) * v
	}
	return c
}

// mirrorOptimizer builds the reference optimizer a restored session must
// stay bit-identical to, and drives it through rounds suggest+observe
// cycles.
func mirrorOptimizer(t *testing.T, p params, rounds int) *bo.Optimizer {
	t.Helper()
	opt, err := bo.NewOptimizer(bo.Domain{N: p.resources, RMin: p.rmin}, boConfig(p), sim.NewRNG(p.seed))
	if err != nil {
		t.Fatalf("mirror optimizer: %v", err)
	}
	for i := 0; i < rounds; i++ {
		pt, err := opt.Next()
		if err != nil {
			t.Fatalf("mirror Next %d: %v", i, err)
		}
		if err := opt.Observe(pt, driveCost(pt)); err != nil {
			t.Fatalf("mirror Observe %d: %v", i, err)
		}
	}
	return opt
}

// driveSession runs rounds suggest+observe cycles against a live session
// through the real serving paths (suggestOne, observe).
func driveSession(t *testing.T, sess *session, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		res := suggestOne(sess)
		if res.err != nil {
			t.Fatalf("suggest %d: %v", i, res.err)
		}
		if _, _, _, err := sess.observeAt(uint32(sess.observations()), res.point, driveCost(res.point)); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
}

// getStatz fetches and decodes /session/statz.
func getStatz(t *testing.T, baseURL string) StatsResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/session/statz")
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("statz decode: %v", err)
	}
	return stats
}

// samePoint compares two suggestions bitwise — the determinism contract is
// bit-identity, not approximate equality.
func samePoint(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDurabilityEvictionDemotesAndRestores is the core promise: eviction
// with a store configured demotes the victim to disk instead of destroying
// it, and the next open restores a session whose suggestion stream continues
// bit-identically — no replay.
func TestDurabilityEvictionDemotesAndRestores(t *testing.T) {
	store := snapstore.NewMemStore()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.SessionsPerShard = 1
	cfg.Store = store
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const rounds = 7
	p := testParams(42)
	sess, _, err := svc.open("a", p)
	if err != nil {
		t.Fatalf("open a: %v", err)
	}
	driveSession(t, sess, rounds)

	// Opening b in the single-slot shard evicts a — which must land in the
	// store, not evaporate.
	if _, res, err := svc.open("b", testParams(2)); err != nil || res.evicted != "a" {
		t.Fatalf("open b = (%+v err=%v), want eviction of a", res, err)
	}
	if _, ok, _ := store.Get("a"); !ok {
		t.Fatal("evicted session not demoted to the store")
	}
	d := svc.Durability()
	if d.Saves != 1 || d.SaveErrors != 0 {
		t.Fatalf("durability after eviction = %+v, want 1 save", d)
	}

	// Re-open a: restored from snapshot, already holding its history.
	sess2, res, err := svc.open("a", p)
	if err != nil || !res.restored || res.existing {
		t.Fatalf("re-open a = (%+v err=%v), want restored", res, err)
	}
	if got := sess2.observations(); got != rounds {
		t.Fatalf("restored session holds %d observations, want %d", got, rounds)
	}
	if svc.Durability().Restores != 1 {
		t.Fatalf("Restores = %d, want 1", svc.Durability().Restores)
	}

	// The restored stream must continue exactly where the original left off.
	mirror := mirrorOptimizer(t, p, rounds)
	for i := 0; i < 3; i++ {
		want, err := mirror.Next()
		if err != nil {
			t.Fatalf("mirror Next: %v", err)
		}
		got := suggestOne(sess2)
		if got.err != nil {
			t.Fatalf("restored suggest: %v", got.err)
		}
		if !samePoint(got.point, want) {
			t.Fatalf("restored suggestion %d = %v, want bit-identical %v", i, got.point, want)
		}
		if err := mirror.Observe(want, driveCost(want)); err != nil {
			t.Fatalf("mirror Observe: %v", err)
		}
		if _, _, _, err := sess2.observeAt(uint32(rounds+i), got.point, driveCost(got.point)); err != nil {
			t.Fatalf("restored observe: %v", err)
		}
	}
}

// TestDurabilityWarmRestart builds a second Service over the first one's
// store and checks the sessions come back live and bit-identical.
func TestDurabilityWarmRestart(t *testing.T) {
	store := snapstore.NewMemStore()
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.Store = store
	svc1, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const rounds = 6
	ids := []string{"alpha", "beta", "gamma"}
	for i, id := range ids {
		sess, _, err := svc1.open(id, testParams(uint64(100+i)))
		if err != nil {
			t.Fatalf("open %s: %v", id, err)
		}
		driveSession(t, sess, rounds)
	}
	svc1.Flush()
	if d := svc1.Durability(); d.Saves != uint64(len(ids)) {
		t.Fatalf("Flush saved %d sessions, want %d", d.Saves, len(ids))
	}

	svc2, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("warm-restart New: %v", err)
	}
	if got := svc2.sessionCount(); got != len(ids) {
		t.Fatalf("warm restart brought back %d sessions, want %d", got, len(ids))
	}
	if d := svc2.Durability(); d.Restores != uint64(len(ids)) {
		t.Fatalf("Restores = %d, want %d", d.Restores, len(ids))
	}
	for i, id := range ids {
		sess, ok := svc2.peek(id)
		if !ok {
			t.Fatalf("session %s not live after warm restart", id)
		}
		mirror := mirrorOptimizer(t, testParams(uint64(100+i)), rounds)
		want, err := mirror.Next()
		if err != nil {
			t.Fatalf("mirror Next: %v", err)
		}
		got := suggestOne(sess)
		if got.err != nil {
			t.Fatalf("restored suggest for %s: %v", id, got.err)
		}
		if !samePoint(got.point, want) {
			t.Fatalf("session %s post-restart suggestion = %v, want %v", id, got.point, want)
		}
	}
}

// TestDurabilityFlushSkipsClean checks the dirty bookkeeping: a second Flush
// with no intervening mutations writes nothing.
func TestDurabilityFlushSkipsClean(t *testing.T) {
	store := snapstore.NewMemStore()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Store = store
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	sess, _, err := svc.open("a", testParams(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveSession(t, sess, 3)
	svc.Flush()
	if d := svc.Durability(); d.Saves != 1 {
		t.Fatalf("first Flush: Saves = %d, want 1", d.Saves)
	}
	svc.Flush()
	if d := svc.Durability(); d.Saves != 1 {
		t.Fatalf("clean Flush re-saved: Saves = %d, want still 1", d.Saves)
	}
	// One more mutation re-dirties; the next Flush writes again.
	driveSession(t, sess, 1)
	svc.Flush()
	if d := svc.Durability(); d.Saves != 2 {
		t.Fatalf("post-mutation Flush: Saves = %d, want 2", d.Saves)
	}
}

// TestDurabilityRemoveDeletesSnapshot checks that an explicit close destroys
// durable state too — both when the session is live and when it only exists
// as a snapshot.
func TestDurabilityRemoveDeletesSnapshot(t *testing.T) {
	store := snapstore.NewMemStore()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Store = store
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	sess, _, err := svc.open("a", testParams(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveSession(t, sess, 2)
	svc.Flush()
	if !svc.remove("a") {
		t.Fatal("remove of a live stored session reported not found")
	}
	if _, ok, _ := store.Get("a"); ok {
		t.Fatal("snapshot survived an explicit close")
	}

	// Store-only session (simulates an evicted one): remove still finds and
	// destroys it.
	sess, _, err = svc.open("b", testParams(2))
	if err != nil {
		t.Fatalf("open b: %v", err)
	}
	driveSession(t, sess, 2)
	svc.Flush()
	sh := svc.shardFor("b")
	sh.mu.Lock()
	delete(sh.sessions, "b")
	sh.mu.Unlock()
	if !svc.remove("b") {
		t.Fatal("remove of a store-only session reported not found")
	}
	if _, ok, _ := store.Get("b"); ok {
		t.Fatal("store-only snapshot survived remove")
	}
	if svc.remove("b") {
		t.Fatal("second remove reported found")
	}
}

// TestDurabilityParamChangeDiscardsSnapshot checks that a snapshot recorded
// under old parameters can never leak into a session opened with new ones.
func TestDurabilityParamChangeDiscardsSnapshot(t *testing.T) {
	store := snapstore.NewMemStore()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Store = store
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	sess, _, err := svc.open("a", testParams(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveSession(t, sess, 3)
	svc.Flush()

	// Store-only, then re-open with different parameters: the stale snapshot
	// is discarded and the session starts fresh.
	sh := svc.shardFor("a")
	sh.mu.Lock()
	delete(sh.sessions, "a")
	sh.mu.Unlock()
	sess2, res, err := svc.open("a", testParams(999))
	if err != nil || res.restored || res.existing {
		t.Fatalf("param-change open = (%+v err=%v), want fresh", res, err)
	}
	if got := sess2.observations(); got != 0 {
		t.Fatalf("fresh session inherited %d observations from a stale snapshot", got)
	}
	if _, ok, _ := store.Get("a"); ok {
		t.Fatal("stale snapshot for old parameters survived")
	}

	// Live param change deletes too.
	driveSession(t, sess2, 2)
	svc.Flush()
	if _, res, err := svc.open("a", testParams(1000)); err != nil || res.restored || res.existing {
		t.Fatalf("live param-change open = (%+v err=%v), want fresh", res, err)
	}
	if _, ok, _ := store.Get("a"); ok {
		t.Fatal("live param change left the old-parameter snapshot behind")
	}
}

// TestDurabilityCorruptSnapshotFallsBack checks the degradation path: a
// snapshot that fails decode is counted, deleted, and the open falls back to
// a fresh session (zero observations — the client's cue to replay). Older
// snapshots of a GP-phase session take the same path, which is the upgrade
// to version 3: version 1 carried the Cholesky factor, version 2
// suggest/observe counts and a reward window that nothing read.
func TestDurabilityCorruptSnapshotFallsBack(t *testing.T) {
	store := snapstore.NewMemStore()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Store = store
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	if err := store.Put("a", []byte("not a snapshot")); err != nil {
		t.Fatalf("seeding corrupt blob: %v", err)
	}
	sess, res, err := svc.open("a", testParams(1))
	if err != nil || res.restored || res.existing {
		t.Fatalf("open over corrupt snapshot = (%+v err=%v), want fresh fallback", res, err)
	}
	if got := sess.observations(); got != 0 {
		t.Fatalf("fallback session holds %d observations, want 0", got)
	}
	d := svc.Durability()
	if d.Corrupt != 1 || d.Restores != 0 {
		t.Fatalf("durability = %+v, want exactly one corrupt, zero restores", d)
	}
	if _, ok, _ := store.Get("a"); ok {
		t.Fatal("corrupt snapshot not deleted")
	}

	for i, file := range []string{"testdata/snapshot-v1-gp.bin", "testdata/snapshot-v2-gp.bin"} {
		old, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put("seed-gp", old); err != nil {
			t.Fatalf("seeding %s: %v", file, err)
		}
		// The blob's own parameters, so only its version can refuse it.
		sess, res, err = svc.open("seed-gp", params{resources: 3, rmin: 0.1, seed: 99, init: 4})
		if err != nil || res.restored || res.existing {
			t.Fatalf("open over %s = (%+v err=%v), want fresh fallback", file, res, err)
		}
		if got := sess.observations(); got != 0 {
			t.Fatalf("%s fallback session holds %d observations, want 0", file, got)
		}
		if d := svc.Durability(); d.Corrupt != uint64(2+i) || d.Restores != 0 {
			t.Fatalf("durability = %+v, want %s counted corrupt, zero restores", d, file)
		}
		if _, ok, _ := store.Get("seed-gp"); ok {
			t.Fatalf("%s not deleted", file)
		}
		// Drop the fresh session so the next blob's open reads the store.
		svc.remove("seed-gp")
	}

	// A snapshot stored under the wrong id is corruption too.
	sessB, _, err := svc.open("b", testParams(2))
	if err != nil {
		t.Fatalf("open b: %v", err)
	}
	driveSession(t, sessB, 2)
	svc.Flush()
	blob, ok, _ := store.Get("b")
	if !ok {
		t.Fatal("no snapshot for b after Flush")
	}
	if err := store.Put("c", blob); err != nil {
		t.Fatalf("planting mismatched snapshot: %v", err)
	}
	if _, res, err := svc.open("c", testParams(2)); err != nil || res.restored {
		t.Fatalf("open over mismatched snapshot = (%+v err=%v), want fresh", res, err)
	}
	if svc.Durability().Corrupt != 4 {
		t.Fatalf("Corrupt = %d, want 4", svc.Durability().Corrupt)
	}
}

// TestDurabilityHTTP drives the durability tier end to end over HTTP
// through the session client: SnapshotEvery-triggered saves, the statz
// durability block, and the Observations field clients use for tail-only
// replay.
func TestDurabilityHTTP(t *testing.T) {
	store := snapstore.NewMemStore()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Store = store
	cfg.SnapshotEvery = 1
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	ec, err := edge.NewClient(ts.URL)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	sc, err := NewClient(ec, "h", 3, 0.1, 7, 5)
	if err != nil {
		t.Fatalf("session client: %v", err)
	}
	ctx := context.Background()

	open, err := sc.Open(ctx)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if open.Existing || open.Restored || open.Observations != 0 {
		t.Fatalf("fresh open = %+v", open)
	}
	const rounds = 4
	for i := 0; i < rounds; i++ {
		point, err := sc.Suggest(ctx)
		if err != nil {
			t.Fatalf("suggest %d: %v", i, err)
		}
		if err := sc.ObserveAt(ctx, i, point, driveCost(point)); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
		// A re-open of the live session reports its database size.
		if open, err = sc.Open(ctx); err != nil || !open.Existing || open.Observations != i+1 {
			t.Fatalf("re-open after observe %d = %+v (err %v), want existing with %d observations", i, open, err, i+1)
		}
	}
	// SnapshotEvery=1: every observe saved.
	if d := svc.Durability(); d.Saves != rounds {
		t.Fatalf("Saves = %d after %d observes with SnapshotEvery=1", d.Saves, rounds)
	}
	if _, ok, _ := store.Get("h"); !ok {
		t.Fatal("no snapshot after periodic saves")
	}

	stats := getStatz(t, ts.URL)
	if stats.Durability == nil {
		t.Fatal("statz missing durability block with a store configured")
	}
	if stats.Durability.Saves != rounds || stats.Durability.StoreBytes <= 0 {
		t.Fatalf("statz durability = %+v", stats.Durability)
	}

	// Drop the live session, then re-open: restored, reporting its history
	// size so a client replays only the tail.
	sh := svc.shardFor("h")
	sh.mu.Lock()
	delete(sh.sessions, "h")
	sh.mu.Unlock()
	if open, err = sc.Open(ctx); err != nil {
		t.Fatalf("re-open: %v", err)
	}
	if !open.Restored || open.Observations != rounds {
		t.Fatalf("re-open = %+v, want restored with %d observations", open, rounds)
	}
}

// TestDurabilityStatzWithoutStore checks the block stays absent with no
// store configured — the pre-durability statz shape is preserved.
func TestDurabilityStatzWithoutStore(t *testing.T) {
	svc, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	stats := getStatz(t, ts.URL)
	if stats.Durability != nil {
		t.Fatalf("statz grew a durability block without a store: %+v", stats.Durability)
	}
}

// TestDurabilityNilRegistryNoAlloc pins the observability contract for the
// new durability instruments: without a registry, the hot-path bookkeeping
// around a clean session's save check performs no allocations.
func TestDurabilityNilRegistryNoAlloc(t *testing.T) {
	store := snapstore.NewMemStore()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Store = store
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	svc.SetObserver(nil)
	sess, _, err := svc.open("a", testParams(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// A clean session's save is the steady-state path the periodic trigger
	// hits over and over; it must stay free.
	if allocs := testing.AllocsPerRun(100, func() { svc.saveSession(sess) }); allocs != 0 {
		t.Fatalf("clean saveSession allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = svc.Durability() }); allocs != 0 {
		t.Fatalf("Durability allocates %v times per run, want 0", allocs)
	}
}
