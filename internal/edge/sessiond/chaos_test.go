package sessiond

import (
	"context"
	"net/http/httptest"
	"testing"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/sim"
)

// The chaos tests exercise the full durability stack the way a crash would:
// a Service over a real segmented FileStore, driven through the HTTP
// client/backend layers, then abandoned without any graceful flush (the
// store is never Closed — exactly what SIGKILL leaves behind) and rebuilt
// from whatever reached the log.

// chaosHarness is one running service epoch over a shared store directory.
type chaosHarness struct {
	store *snapstore.FileStore
	svc   *Service
	ts    *httptest.Server
	ec    *edge.Client
}

// startChaosService opens the store directory (running crash recovery) and
// a fresh Service + HTTP stack over it. SnapshotEvery=1 makes every observe
// a commit point.
func startChaosService(t *testing.T, fsys snapstore.FS, dir string) *chaosHarness {
	t.Helper()
	store, err := snapstore.Open(fsys, dir, snapstore.Options{})
	if err != nil {
		t.Fatalf("snapstore.Open: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.Store = store
	cfg.SnapshotEvery = 1
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	ec, err := edge.NewClient(ts.URL)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	return &chaosHarness{store: store, svc: svc, ts: ts, ec: ec}
}

// kill abandons the epoch the way SIGKILL would: the HTTP front stops,
// nothing is flushed, and the store is never Closed — only what already
// reached the log survives.
func (h *chaosHarness) kill() {
	h.ts.Close()
}

// backend builds a fresh client+backend for one session under the named
// policy, as a restarted MAR device would.
func (h *chaosHarness) backend(t *testing.T, id, policy string, seed uint64) *Backend {
	t.Helper()
	c, err := NewClient(h.ec, id, 3, 0.1, seed, 5)
	if err != nil {
		t.Fatalf("NewClient %s: %v", id, err)
	}
	if err := c.SetPolicy(policy); err != nil {
		t.Fatalf("SetPolicy %s: %v", policy, err)
	}
	return NewBackend(context.Background(), c)
}

// driveBackend performs rounds BONextPoint cycles, growing the client-side
// history exactly like core's runtime does.
func driveBackend(t *testing.T, b *Backend, points [][]float64, costs []float64, rounds int) ([][]float64, []float64) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		pt, err := b.BONextPoint(1, points, costs)
		if err != nil {
			t.Fatalf("BONextPoint: %v", err)
		}
		points = append(points, pt)
		costs = append(costs, driveCost(pt))
	}
	return points, costs
}

// expectContinuation computes the bit-exact suggestion a correct recovery
// must produce: a mirror of the named policy replays committed rounds as
// full suggest+observe cycles (asserting the recorded points really are the
// deterministic stream), ingests the uncommitted tail as bare observations
// (their suggest-side RNG draws died with the process), and asks for the
// next point.
func expectContinuation(t *testing.T, policy string, seed uint64, points [][]float64, costs []float64, committed int) []float64 {
	t.Helper()
	p := params{resources: 3, rmin: 0.1, seed: seed, init: 5}
	opt, err := policies.New(policy, bo.Domain{N: p.resources, RMin: p.rmin}, boConfig(p), sim.NewRNG(p.seed))
	if err != nil {
		t.Fatalf("mirror policy: %v", err)
	}
	for i := 0; i < committed; i++ {
		pt, err := opt.Next()
		if err != nil {
			t.Fatalf("mirror Next %d: %v", i, err)
		}
		if !samePoint(pt, points[i]) {
			t.Fatalf("recorded point %d diverges from the deterministic stream", i)
		}
		if err := opt.Observe(points[i], costs[i]); err != nil {
			t.Fatalf("mirror Observe %d: %v", i, err)
		}
	}
	for i := committed; i < len(points); i++ {
		if err := opt.Observe(points[i], costs[i]); err != nil {
			t.Fatalf("mirror tail Observe %d: %v", i, err)
		}
	}
	want, err := opt.Next()
	if err != nil {
		t.Fatalf("mirror continuation Next: %v", err)
	}
	return want
}

// TestChaosKillRestartBitIdentical is the tentpole acceptance test: a
// SIGKILL'd service restarted over the same store directory serves every
// previously-committed session with a bit-identical next suggestion, using
// snapshot restore plus tail-only replay — and a session that never reached
// a commit point degrades to the full-replay fallback. Every entrant runs
// it, with sessions cut inside the warm-up and past one and two CMA-ES
// generations (init 5 + λ 8 at d = 4).
func TestChaosKillRestartBitIdentical(t *testing.T) {
	for _, policy := range policies.Names() {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			h1 := startChaosService(t, nil, dir)

			// Committed sessions: m calls commit m−1 observations each
			// (every observe saves; the final suggest's RNG advance dies
			// with the process).
			type driven struct {
				id     string
				seed   uint64
				rounds int
				points [][]float64
				costs  []float64
			}
			sessions := []*driven{
				{id: "kill-a", seed: 11, rounds: 15},
				{id: "kill-b", seed: 22, rounds: 3},
				{id: "kill-c", seed: 33, rounds: 23},
			}
			for _, d := range sessions {
				d.points, d.costs = driveBackend(t, h1.backend(t, d.id, policy, d.seed), nil, nil, d.rounds)
			}
			// One session killed before any commit point: a single suggest,
			// no observe ever reached the server's store.
			fresh := &driven{id: "kill-virgin", seed: 44, rounds: 1}
			fresh.points, fresh.costs = driveBackend(t, h1.backend(t, fresh.id, policy, fresh.seed), nil, nil, fresh.rounds)

			h1.kill()

			h2 := startChaosService(t, nil, dir)
			defer func() { h2.kill(); _ = h2.store.Close() }()
			for _, d := range sessions {
				if _, ok, _ := h2.store.Get(d.id); !ok {
					t.Fatalf("session %s missing from the recovered store", d.id)
				}
			}
			if got := h2.svc.Durability().Restores; got != uint64(len(sessions)) {
				t.Fatalf("warm restart restored %d sessions, want %d", got, len(sessions))
			}

			for _, d := range sessions {
				want := expectContinuation(t, policy, d.seed, d.points, d.costs, d.rounds-1)
				got, err := h2.backend(t, d.id, policy, d.seed).BONextPoint(1, d.points, d.costs)
				if err != nil {
					t.Fatalf("post-restart BONextPoint for %s: %v", d.id, err)
				}
				if !samePoint(got, want) {
					t.Fatalf("session %s post-restart suggestion = %v, want bit-identical %v", d.id, got, want)
				}
			}

			// The uncommitted session has no snapshot: its re-open reports
			// zero observations and the backend transparently replays the
			// full history.
			want := expectContinuation(t, policy, fresh.seed, fresh.points, fresh.costs, 0)
			got, err := h2.backend(t, fresh.id, policy, fresh.seed).BONextPoint(1, fresh.points, fresh.costs)
			if err != nil {
				t.Fatalf("full-replay BONextPoint: %v", err)
			}
			if !samePoint(got, want) {
				t.Fatalf("full-replay continuation = %v, want %v", got, want)
			}
		})
	}
}

// TestChaosTornWriteDegradesToReplay injects a torn write into the last
// snapshot save before the kill: the service keeps serving (the save error
// only re-marks the session dirty), recovery truncates the torn record, and
// the restarted service comes back at the previous commit point — the
// client's tail replay covers the gap and the continuation stays
// bit-identical.
func TestChaosTornWriteDegradesToReplay(t *testing.T) {
	dir := t.TempDir()
	const rounds = 4
	// Writes are one per snapshot save; save i covers the state up to
	// observation i+1. Tearing the last write (index rounds−2) loses the
	// final commit.
	ffs := faults.NewFaultFS(nil, faults.FSPlan{
		TornWrites: map[int]int{rounds - 2: 8},
	})
	h1 := startChaosService(t, ffs, dir)

	const id, seed = "torn", uint64(77)
	points, costs := driveBackend(t, h1.backend(t, id, "", seed), nil, nil, rounds)
	if got := h1.svc.Durability(); got.SaveErrors != 1 || got.Saves != rounds-2 {
		t.Fatalf("pre-kill durability = %+v, want %d saves and 1 torn-write error", got, rounds-2)
	}
	st := ffs.Stats()
	if st.TornWrites != 1 {
		t.Fatalf("fault plan fired %d torn writes, want 1", st.TornWrites)
	}
	h1.kill()

	// Recovery on the real filesystem: the torn record is detected and the
	// segment holding it is counted corrupt. The store rotated away from
	// that segment when the write failed, so the tear sits in a sealed
	// segment — not the active tail, which recovery leaves untruncated.
	h2 := startChaosService(t, nil, dir)
	defer func() { h2.kill(); _ = h2.store.Close() }()
	rec := h2.store.Recovery()
	if rec.CorruptSegments != 1 {
		t.Fatalf("recovery = %+v, want exactly one corrupt segment", rec)
	}
	if rec.Records != rounds-2 {
		t.Fatalf("recovery replayed %d records, want the %d committed before the tear", rec.Records, rounds-2)
	}

	// The restored session is two observations behind the client; the
	// backend ships the missing tail and the stream continues bit-identically.
	want := expectContinuation(t, "", seed, points, costs, rounds-2)
	got, err := h2.backend(t, id, "", seed).BONextPoint(1, points, costs)
	if err != nil {
		t.Fatalf("post-recovery BONextPoint: %v", err)
	}
	if !samePoint(got, want) {
		t.Fatalf("degraded continuation = %v, want bit-identical %v", got, want)
	}
}
