package bo_test

import (
	"math"
	"testing"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/sim"
)

// stateTestCost is an arbitrary smooth deterministic objective.
func stateTestCost(p []float64) float64 {
	c := 0.0
	for i, v := range p {
		c += v * float64(i+1) * 0.1
	}
	return math.Sin(c*7) + c
}

// drive advances a policy through k suggest+observe rounds.
func drive(t *testing.T, o bo.Policy, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		p, err := o.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if err := o.Observe(p, stateTestCost(p)); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
}

// samePoints compares two suggestions bit for bit.
func samePoints(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dim %d vs %d", tag, len(got), len(want))
	}
	for d := range want {
		if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
			t.Fatalf("%s: dim %d got %x want %x",
				tag, d, math.Float64bits(got[d]), math.Float64bits(want[d]))
		}
	}
}

// restore rebuilds a GP-EI optimizer from an exported state through the
// policies registry, the one restore path every caller uses.
func restore(dom bo.Domain, cfg bo.Config, st *bo.OptimizerState) (bo.Policy, error) {
	return policies.Restore(policies.NameGPEI, dom, cfg, st)
}

// TestExportImportBitIdentity is the core durability contract: exporting an
// optimizer at any point of its life and rebuilding it from the state must
// continue the exact suggestion stream the original would have produced —
// through the init phase, right after init, and deep into GP-driven search.
func TestExportImportBitIdentity(t *testing.T) {
	dom := bo.Domain{N: 3, RMin: 0.1}
	cfg := bo.DefaultConfig()
	cfg.Candidates = 128
	cfg.RefineSteps = 10
	for _, rounds := range []int{0, 2, 5, 9, 17} {
		live, err := bo.NewOptimizer(dom, cfg, sim.NewRNG(42))
		if err != nil {
			t.Fatalf("optimizer: %v", err)
		}
		drive(t, live, rounds)
		st := live.ExportState()

		restored, err := restore(dom, cfg, st)
		if err != nil {
			t.Fatalf("rounds=%d: restore: %v", rounds, err)
		}
		// Continue both for several more rounds; every suggestion must agree
		// bit for bit (the restored optimizer refits its surrogate at its
		// first GP-phase Next, and that fit is the live incremental factor
		// to the bit).
		for k := 0; k < 4; k++ {
			wp, err := live.Next()
			if err != nil {
				t.Fatalf("live next: %v", err)
			}
			gp, err := restored.Next()
			if err != nil {
				t.Fatalf("restored next: %v", err)
			}
			samePoints(t, "after restore", gp, wp)
			c := stateTestCost(wp)
			if err := live.Observe(wp, c); err != nil {
				t.Fatal(err)
			}
			if err := restored.Observe(gp, c); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestExportAfterSuggestBeforeObserve pins the mid-cycle case the session
// tier hits constantly: state exported between a suggest and its observe
// (RNG already advanced) must resume bit-identically.
func TestExportAfterSuggestBeforeObserve(t *testing.T) {
	dom := bo.Domain{N: 2, RMin: 0.2}
	cfg := bo.DefaultConfig()
	cfg.Candidates = 64
	cfg.RefineSteps = 5
	live, err := bo.NewOptimizer(dom, cfg, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, live, 7)
	if _, err := live.Next(); err != nil { // dangling suggest: RNG moved, no observe yet
		t.Fatal(err)
	}
	restored, err := restore(dom, cfg, live.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	wp, err := live.Next()
	if err != nil {
		t.Fatal(err)
	}
	gp, err := restored.Next()
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "dangling suggest", gp, wp)
}

// TestImportValidation exercises every entrant's defensive checks against
// states that crossed a disk boundary and rotted.
func TestImportValidation(t *testing.T) {
	dom := bo.Domain{N: 2, RMin: 0.1}
	cfg := bo.DefaultConfig()
	cfg.Candidates = 32
	cfg.RefineSteps = 2
	bases := make(map[string]bo.Policy)
	for _, name := range policies.Names() {
		base, err := policies.New(name, dom, cfg, sim.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		drive(t, base, 8)
		bases[name] = base
	}

	mutations := []struct {
		name string
		mut  func(st *bo.OptimizerState)
	}{
		{"nil state is rejected via nil pointer", nil},
		{"length mismatch", func(st *bo.OptimizerState) { st.Y = st.Y[:len(st.Y)-1] }},
		{"point outside domain", func(st *bo.OptimizerState) { st.X[0][0] = 9 }},
		{"non-finite cost", func(st *bo.OptimizerState) { st.Y[0] = math.NaN() }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			for _, name := range policies.Names() {
				var st *bo.OptimizerState
				if m.mut != nil {
					// Re-export so each mutation starts from a pristine deep copy.
					st = bases[name].ExportState()
					m.mut(st)
				}
				if _, err := policies.Restore(name, dom, cfg, st); err == nil {
					t.Errorf("%s: corrupt state accepted", name)
				}
			}
		})
	}
}

// TestNewValidation: every entrant rejects a nil RNG and an invalid domain,
// and every entrant with a warm-up rejects an empty one.
func TestNewValidation(t *testing.T) {
	dom := bo.Domain{N: 2, RMin: 0.1}
	noWarmUp := bo.DefaultConfig()
	noWarmUp.InitSamples = 0
	for _, name := range policies.Names() {
		t.Run(name, func(t *testing.T) {
			if _, err := policies.New(name, dom, bo.DefaultConfig(), nil); err == nil {
				t.Error("nil RNG accepted")
			}
			for _, bad := range []bo.Domain{{N: 0, RMin: 0.1}, {N: 2, RMin: -0.1}, {N: 2, RMin: 1.5}} {
				if _, err := policies.New(name, bad, bo.DefaultConfig(), sim.NewRNG(1)); err == nil {
					t.Errorf("domain %+v accepted", bad)
				}
			}
			_, err := policies.New(name, dom, noWarmUp, sim.NewRNG(1))
			if name == policies.NameRandom {
				if err != nil {
					t.Errorf("random search reads no InitSamples, yet 0 is rejected: %v", err)
				}
			} else if err == nil {
				t.Error("InitSamples 0 accepted")
			}
		})
	}
}
