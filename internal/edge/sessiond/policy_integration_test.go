package sessiond_test

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
	"github.com/mar-hbo/hbo/internal/sim"
)

// refPolicy mirrors exactly how the service builds a session's policy, so a
// test can predict every suggestion a policy-selected session must produce.
func refPolicy(t *testing.T, name string, seed uint64) bo.Policy {
	t.Helper()
	cfg := bo.DefaultConfig()
	cfg.InitSamples = testInit
	p, err := policies.New(name, bo.Domain{N: testResources, RMin: testRMin}, cfg, sim.NewRNG(seed))
	if err != nil {
		t.Fatalf("reference policy %q: %v", name, err)
	}
	return p
}

func newPolicyService(t *testing.T, store sessiond.SessionStore) *sessiond.Service {
	t.Helper()
	svc, err := sessiond.New(sessiond.Config{
		Shards:           1,
		SessionsPerShard: 1,
		QueueBound:       8,
		MeshCacheCap:     2,
		Store:            store,
	}, nil)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	return svc
}

func newPolicyClient(t *testing.T, baseURL, id, policy string, seed uint64, stream bool) *sessiond.Client {
	t.Helper()
	sc := newTestClient(t, baseURL, id, seed)
	if err := sc.SetPolicy(policy); err != nil {
		t.Fatalf("set policy %q: %v", policy, err)
	}
	if stream {
		ec, err := edge.NewClient(baseURL)
		if err != nil {
			t.Fatalf("stream edge client: %v", err)
		}
		str, err := sessiond.NewStreamClient(ec)
		if err != nil {
			t.Fatalf("stream client: %v", err)
		}
		t.Cleanup(func() { _ = str.Close() })
		sc.SetStream(str)
	}
	return sc
}

// drivePolicySteps runs steps suggest/observe rounds through the client,
// asserting bit-identity against the reference policy at every step.
func drivePolicySteps(t *testing.T, ctx context.Context, sc *sessiond.Client, ref bo.Policy, seed uint64, from, to int) {
	t.Helper()
	for k := from; k < to; k++ {
		got, err := sc.Suggest(ctx)
		if err != nil {
			t.Fatalf("suggest %d: %v", k, err)
		}
		want, err := ref.Next()
		if err != nil {
			t.Fatalf("reference next %d: %v", k, err)
		}
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("step %d dim %d: got %x want %x",
					k, d, math.Float64bits(got[d]), math.Float64bits(want[d]))
			}
		}
		cost := testCost(seed, k, want)
		if err := ref.Observe(want, cost); err != nil {
			t.Fatalf("reference observe %d: %v", k, err)
		}
		if err := sc.ObserveAt(ctx, k, got, cost); err != nil {
			t.Fatalf("observe %d: %v", k, err)
		}
	}
}

// TestLinUCBSessionSurvivesEviction drives a session of every registered
// policy over both carriers (single-frame POSTs and a multiplexed stream)
// through the full durability lifecycle: open with an explicit policy,
// build history past one CMA-ES generation, get evicted by an intruder in a
// size-1 shard, re-open from the snapshot (Restored=true), and continue
// bit-identically with an uninterrupted reference policy across another
// generation boundary. This is the acceptance criterion: every policy
// serves suggest/observe over either carrier and survives
// eviction/re-admission.
func TestLinUCBSessionSurvivesEviction(t *testing.T) {
	// CMA-ES samples λ = 8 per generation at d = testResources+1 = 4; the
	// cut falls three observations into its second generation.
	const cut, end = testInit + 8 + 3, testInit + 3*8
	for _, tc := range []struct {
		name   string
		stream bool
	}{
		{"oneshot", false},
		{"stream", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, policy := range policies.Names() {
				t.Run(policy, func(t *testing.T) {
					store := snapstore.NewMemStore()
					svc := newPolicyService(t, store)
					ts := httptest.NewServer(svc.Handler())
					t.Cleanup(ts.Close)

					ctx := context.Background()
					const seed = 42
					sc := newPolicyClient(t, ts.URL, "victim", policy, seed, tc.stream)
					if _, err := sc.Open(ctx); err != nil {
						t.Fatalf("open: %v", err)
					}
					ref := refPolicy(t, policy, seed)
					drivePolicySteps(t, ctx, sc, ref, seed, 0, cut)

					// Evict the victim; its snapshot must land in the store.
					intruder := newPolicyClient(t, ts.URL, "intruder", "", 7, tc.stream)
					ires, err := intruder.Open(ctx)
					if err != nil {
						t.Fatalf("open intruder: %v", err)
					}
					if ires.Evicted != "victim" {
						t.Fatalf("intruder evicted %q, want victim", ires.Evicted)
					}
					if _, ok, err := store.Get("victim"); err != nil || !ok {
						t.Fatalf("store.Get(victim) = ok=%v err=%v, want snapshot present", ok, err)
					}

					// Re-open restores from the snapshot; the continuation
					// must stay bit-identical to the never-evicted reference.
					res, err := sc.Open(ctx)
					if err != nil {
						t.Fatalf("re-open: %v", err)
					}
					if !res.Restored {
						t.Fatal("re-open did not restore from snapshot")
					}
					if res.Observations != cut {
						t.Fatalf("restored observations = %d, want %d", res.Observations, cut)
					}
					drivePolicySteps(t, ctx, sc, ref, seed, cut, end)
				})
			}
		})
	}
}

// TestPolicyRejectedWhenUnknown pins the validation surface: an unknown
// policy name fails client-side in SetPolicy, and a raw request with a bad
// name is rejected by the server.
func TestPolicyRejectedWhenUnknown(t *testing.T) {
	sc := newTestClient(t, "http://127.0.0.1:0", "x", 1)
	if err := sc.SetPolicy("no-such-policy"); err == nil {
		t.Fatal("SetPolicy accepted an unknown policy")
	}
	if err := sc.SetPolicy(policies.NameGPEI); err != nil {
		t.Fatalf("SetPolicy rejected the gp-ei alias: %v", err)
	}
}
