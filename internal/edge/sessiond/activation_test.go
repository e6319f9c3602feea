package sessiond_test

import (
	"context"
	"math"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/scenario"
	"github.com/mar-hbo/hbo/internal/sim"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// servedCall is one remote proposal the backend returned to the runtime,
// with the activation history it was asked from.
type servedCall struct {
	activation int
	points     [][]float64
	costs      []float64
	got        []float64
}

// recordingBO wraps the session backend, recording every served proposal.
// before, when set, runs ahead of each call (the eviction mode's hook).
type recordingBO struct {
	inner  *sessiond.Backend
	before func()
	served []servedCall
}

func (r *recordingBO) BONextPoint(activation int, points [][]float64, costs []float64) ([]float64, error) {
	if r.before != nil {
		r.before()
	}
	p, err := r.inner.BONextPoint(activation, points, costs)
	if err == nil {
		r.served = append(r.served, servedCall{activation, slices.Clone(points), slices.Clone(costs), slices.Clone(p)})
	}
	return p, err
}

func (r *recordingBO) Available() bool { return r.inner.Available() }

// TestRemoteProposalsMatchFreshLocalRun is the remote-BO differential test:
// a runtime driven through several activations with sessiond.Backend must
// receive, for every remote proposal, exactly what a fresh local optimizer
// under the session seed proposes from that activation's history — each
// activation is its own BO run (Algorithm 1), so no activation may be
// proposed from an earlier one's GP. It holds on a clean link, under
// request drops and synthesized 5xx (both fail before the server steps its
// RNG), and across mid-activation evictions restored from snapshots.
// Response truncation and corruption are left out: a lost response after a
// served suggest advances the server's RNG, so the stream legitimately
// departs from the reference.
func TestRemoteProposalsMatchFreshLocalRun(t *testing.T) {
	const (
		buildSeed   = 7
		backendSeed = 42
		activations = 3
	)
	hcfg := core.DefaultConfig()
	hcfg.InitSamples = 3
	hcfg.Iterations = 4

	for _, mode := range []string{"clean", "faults", "eviction"} {
		t.Run(mode, func(t *testing.T) {
			scfg := sessiond.DefaultConfig()
			ccfg := edge.DefaultClientConfig()
			var inj *faults.Transport
			switch mode {
			case "faults":
				inj = faults.NewTransport(nil, 5, faults.Plan{DropRate: 0.25, ServerErrorRate: 0.25})
				ccfg.Transport = inj
				ccfg.MaxRetries = 2
				ccfg.BreakerFailureThreshold = 1 << 20
				ccfg.Sleep = func(time.Duration) {}
			case "eviction":
				scfg.Shards = 1
				scfg.SessionsPerShard = 1
				scfg.Store = snapstore.NewMemStore()
			}
			svc, err := sessiond.New(scfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			ec, err := edge.NewClientWithConfig(ts.URL, 0, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := sessiond.NewClient(ec, "diff", tasks.NumResources, hcfg.RMin, backendSeed, hcfg.InitSamples)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			rec := &recordingBO{inner: sessiond.NewBackend(ctx, sc)}
			if mode == "eviction" {
				// Every second call, an intruder takes the one-session
				// shard, demoting this session to its snapshot mid-activation.
				intruder := newTestClient(t, ts.URL, "intruder", 1)
				calls := 0
				rec.before = func() {
					if calls++; calls%2 == 0 {
						if _, err := intruder.Open(ctx); err != nil {
							t.Fatalf("intruder open: %v", err)
						}
					}
				}
			}

			built, err := scenario.SC1CF1().Build(buildSeed)
			if err != nil {
				t.Fatal(err)
			}
			built.Runtime.SetBOBackend(rec)
			rng := sim.NewRNG(buildSeed)
			for k := 0; k < activations; k++ {
				if _, err := core.RunActivation(built.Runtime, hcfg, rng); err != nil {
					t.Fatalf("activation %d: %v", k, err)
				}
			}

			dom := bo.Domain{N: tasks.NumResources, RMin: hcfg.RMin}
			bcfg := bo.DefaultConfig()
			bcfg.InitSamples = hcfg.InitSamples
			var ref bo.Policy
			seen, cur := 0, 0
			perActivation := map[int]int{}
			for i, c := range rec.served {
				if c.activation != cur {
					if ref, err = policies.New("", dom, bcfg, sim.NewRNG(backendSeed)); err != nil {
						t.Fatal(err)
					}
					seen, cur = 0, c.activation
				}
				for ; seen < len(c.points); seen++ {
					if err := ref.Observe(c.points[seen], c.costs[seen]); err != nil {
						t.Fatal(err)
					}
				}
				want, err := ref.Next()
				if err != nil {
					t.Fatal(err)
				}
				for d := range want {
					if math.Float64bits(c.got[d]) != math.Float64bits(want[d]) {
						t.Fatalf("proposal %d (activation %d, %d observations): got %v, want %v",
							i, c.activation, len(c.points), c.got, want)
					}
				}
				perActivation[c.activation]++
			}
			if len(perActivation) != activations {
				t.Fatalf("remote proposals per activation = %v, want some in each of %d", perActivation, activations)
			}
			switch mode {
			case "clean":
				if got, want := len(rec.served), activations*hcfg.Iterations; got != want {
					t.Fatalf("%d remote proposals on a clean link, want %d", got, want)
				}
			case "faults":
				if st := inj.Stats(); st.Drops == 0 || st.Synth5xx == 0 {
					t.Fatalf("fault plan never fired both kinds: %+v", st)
				}
			case "eviction":
				if sc.Reopens() == 0 || sc.Restores() == 0 {
					t.Fatalf("reopens %d, restores %d: no eviction was restored mid-activation", sc.Reopens(), sc.Restores())
				}
			}
		})
	}
}
