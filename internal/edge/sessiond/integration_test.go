package sessiond_test

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/sim"
)

const (
	testResources = 3
	testRMin      = 0.1
	testInit      = 5
)

// refOptimizer mirrors exactly how the service builds a session's
// optimizer, so a test can predict every suggestion a session must produce.
func refOptimizer(t *testing.T, seed uint64) *bo.Optimizer {
	t.Helper()
	cfg := bo.DefaultConfig()
	cfg.InitSamples = testInit
	opt, err := bo.NewOptimizer(bo.Domain{N: testResources, RMin: testRMin}, cfg, sim.NewRNG(seed))
	if err != nil {
		t.Fatalf("reference optimizer: %v", err)
	}
	return opt
}

// testCost is a deterministic per-session cost function, different per seed
// so two sessions never feed their GPs identical observations.
func testCost(seed uint64, step int, point []float64) float64 {
	c := float64(seed%97)/97 - 0.5
	for i, v := range point {
		c += v * float64(i+1) * 0.01
	}
	return c + float64(step)*0.001
}

func newTestClient(t *testing.T, baseURL, id string, seed uint64) *sessiond.Client {
	t.Helper()
	ec, err := edge.NewClient(baseURL)
	if err != nil {
		t.Fatalf("edge client: %v", err)
	}
	sc, err := sessiond.NewClient(ec, id, testResources, testRMin, seed, testInit)
	if err != nil {
		t.Fatalf("session client: %v", err)
	}
	return sc
}

// TestConcurrentSessionIsolation drives 64 concurrent sessions through the
// HTTP surface and checks, bit for bit, that every session's suggestion
// stream equals a private reference optimizer fed the same observations —
// i.e. no GP state bleeds between sessions no matter how their handler
// goroutines interleave. Run under -race this also exercises the store's
// locking.
func TestConcurrentSessionIsolation(t *testing.T) {
	svc, err := sessiond.New(sessiond.Config{
		Shards:           4,
		SessionsPerShard: 32,
		QueueBound:       128,
		MeshCacheCap:     2,
	}, nil)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const sessions = 64
	const steps = 8
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("iso-%02d", i)
			seed := uint64(1000 + i)
			sc := newTestClient(t, ts.URL, id, seed)
			if _, err := sc.Open(ctx); err != nil {
				errs <- fmt.Errorf("%s: open: %w", id, err)
				return
			}
			ref := refOptimizer(t, seed)
			for k := 0; k < steps; k++ {
				got, err := sc.Suggest(ctx)
				if err != nil {
					errs <- fmt.Errorf("%s: suggest %d: %w", id, k, err)
					return
				}
				want, err := ref.Next()
				if err != nil {
					errs <- fmt.Errorf("%s: reference next %d: %w", id, k, err)
					return
				}
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
						errs <- fmt.Errorf("%s: step %d dim %d: got %x want %x — cross-session bleed",
							id, k, d, math.Float64bits(got[d]), math.Float64bits(want[d]))
						return
					}
				}
				cost := testCost(seed, k, want)
				if err := ref.Observe(want, cost); err != nil {
					errs <- fmt.Errorf("%s: reference observe %d: %w", id, k, err)
					return
				}
				if err := sc.ObserveAt(ctx, k, got, cost); err != nil {
					errs <- fmt.Errorf("%s: observe %d: %w", id, k, err)
					return
				}
			}
			if err := sc.CloseSession(ctx); err != nil {
				errs <- fmt.Errorf("%s: close: %w", id, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEvictionAndReadmission fills a one-shard store beyond capacity and
// checks the full lifecycle: deterministic LRU eviction, 404 on the evicted
// session, and a clean re-open that starts from fresh optimizer state.
func TestEvictionAndReadmission(t *testing.T) {
	svc, err := sessiond.New(sessiond.Config{
		Shards:           1,
		SessionsPerShard: 2,
		QueueBound:       8,
		MeshCacheCap:     2,
	}, nil)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx := context.Background()
	a := newTestClient(t, ts.URL, "a", 1)
	b := newTestClient(t, ts.URL, "b", 2)
	c := newTestClient(t, ts.URL, "c", 3)

	for _, sc := range []*sessiond.Client{a, b} {
		if _, err := sc.Open(ctx); err != nil {
			t.Fatalf("open %s: %v", sc.ID(), err)
		}
	}
	// Touch b so a is strictly least-recently-used.
	if _, err := b.Suggest(ctx); err != nil {
		t.Fatalf("suggest b: %v", err)
	}
	// Opening c in the full shard must evict a.
	if _, err := c.Open(ctx); err != nil {
		t.Fatalf("open c: %v", err)
	}
	if _, err := a.Suggest(ctx); err == nil {
		t.Fatal("suggest on evicted session a succeeded, want 404")
	} else if code, ok := edge.StatusCode(err); !ok || code != 404 {
		t.Fatalf("suggest on evicted session a: got %v, want status 404", err)
	}
	// b must be untouched by a's eviction: its next suggestion continues
	// the same stream a reference optimizer predicts.
	ref := refOptimizer(t, 2)
	first, err := ref.Next()
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	second, err := ref.Next()
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	_ = first
	got, err := b.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest b after eviction: %v", err)
	}
	for d := range second {
		if math.Float64bits(got[d]) != math.Float64bits(second[d]) {
			t.Fatalf("b's stream perturbed by eviction: dim %d got %x want %x",
				d, math.Float64bits(got[d]), math.Float64bits(second[d]))
		}
	}
	// Re-admitting a starts from fresh state: its first suggestion equals a
	// fresh reference optimizer's.
	if _, err := a.Open(ctx); err != nil {
		t.Fatalf("re-open a: %v", err)
	}
	refA := refOptimizer(t, 1)
	wantA, err := refA.Next()
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	gotA, err := a.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest re-admitted a: %v", err)
	}
	for d := range wantA {
		if math.Float64bits(gotA[d]) != math.Float64bits(wantA[d]) {
			t.Fatalf("re-admitted a not fresh: dim %d got %x want %x",
				d, math.Float64bits(gotA[d]), math.Float64bits(wantA[d]))
		}
	}
}

// TestBackendReplayAfterEviction checks the transparent re-admission path:
// a Backend whose server-side session was evicted mid-run re-opens it,
// replays the full observation history, and produces exactly the suggestion
// a never-evicted session would have.
func TestBackendReplayAfterEviction(t *testing.T) {
	svc, err := sessiond.New(sessiond.Config{
		Shards:           1,
		SessionsPerShard: 1,
		QueueBound:       8,
		MeshCacheCap:     2,
	}, nil)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx := context.Background()
	sc := newTestClient(t, ts.URL, "victim", 42)
	backend := sessiond.NewBackend(ctx, sc)

	// Build a history through the backend, mirroring with a reference.
	ref := refOptimizer(t, 42)
	var points [][]float64
	var costs []float64
	for k := 0; k < 4; k++ {
		got, err := backend.BONextPoint(1, points, costs)
		if err != nil {
			t.Fatalf("backend step %d: %v", k, err)
		}
		want, err := ref.Next()
		if err != nil {
			t.Fatalf("reference step %d: %v", k, err)
		}
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("pre-eviction step %d dim %d: got %x want %x",
					k, d, math.Float64bits(got[d]), math.Float64bits(want[d]))
			}
		}
		cost := testCost(42, k, want)
		if err := ref.Observe(want, cost); err != nil {
			t.Fatalf("reference observe: %v", err)
		}
		points = append(points, want)
		costs = append(costs, cost)
	}

	// Evict the victim by opening another session in the size-1 shard.
	intruder := newTestClient(t, ts.URL, "intruder", 7)
	if _, err := intruder.Open(ctx); err != nil {
		t.Fatalf("open intruder: %v", err)
	}

	// The next backend call must transparently re-admit: re-open, replay
	// the full history, and suggest. The rebuilt session's optimizer starts
	// from a fresh RNG stream, so the contract is equality with a fresh
	// reference optimizer fed the same history — not with the pre-eviction
	// persistent mirror, whose RNG had already advanced.
	got, err := backend.BONextPoint(1, points, costs)
	if err != nil {
		t.Fatalf("backend after eviction: %v", err)
	}
	rebuilt := refOptimizer(t, 42)
	for i := range points {
		if err := rebuilt.Observe(points[i], costs[i]); err != nil {
			t.Fatalf("rebuilt reference observe: %v", err)
		}
	}
	want, err := rebuilt.Next()
	if err != nil {
		t.Fatalf("rebuilt reference: %v", err)
	}
	for d := range want {
		if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
			t.Fatalf("post-readmission dim %d: got %x want %x",
				d, math.Float64bits(got[d]), math.Float64bits(want[d]))
		}
	}
	if sc.Reopens() != 1 {
		t.Fatalf("Reopens() = %d, want 1", sc.Reopens())
	}
}
