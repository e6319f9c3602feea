package policies

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/sim"
)

// testConfig shrinks the GP search budget so the battery's ≥1000 cases stay
// fast; non-GP entrants only read InitSamples from it.
func testConfig() bo.Config {
	cfg := bo.DefaultConfig()
	cfg.InitSamples = 3
	cfg.Candidates = 32
	cfg.RefineSteps = 5
	return cfg
}

// testDomain derives a small but varied domain from quick's raw bytes.
func testDomain(nRaw, rminRaw uint8) bo.Domain {
	return bo.Domain{
		N:    1 + int(nRaw%5),
		RMin: float64(rminRaw%90) / 100,
	}
}

// syntheticCost is the deterministic objective the battery evaluates
// suggestions against: smooth, finite, and point-dependent so learning
// policies have something to chew on.
func syntheticCost(p []float64) float64 {
	c := 0.0
	for i, v := range p {
		c += float64(i+1) * v * v
	}
	return c + 0.25*p[len(p)-1]
}

const propertyRounds = 12

// TestPolicySuggestionsStayInDomain: every suggestion from every entrant
// lies on the allocation simplex with the ratio inside [RMin, 1], across
// random seeds and domain shapes. 4 policies × 100 cases × 12 rounds.
func TestPolicySuggestionsStayInDomain(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64, nRaw, rminRaw uint8) bool {
				dom := testDomain(nRaw, rminRaw)
				pol, err := New(name, dom, testConfig(), sim.NewRNG(seed))
				if err != nil {
					t.Fatalf("New(%s): %v", name, err)
				}
				for i := 0; i < propertyRounds; i++ {
					p, err := pol.Next()
					if err != nil {
						t.Fatalf("Next %d: %v", i, err)
					}
					if !dom.Contains(p) {
						t.Logf("suggestion %d = %v outside %+v", i, p, dom)
						return false
					}
					if err := pol.Observe(p, syntheticCost(p)); err != nil {
						t.Fatalf("Observe %d: %v", i, err)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPolicyObserveNeverMutatesSuggestions: a slice returned by Next keeps
// its exact bits through arbitrarily many later Observe/Next calls — the
// caller owns it.
func TestPolicyObserveNeverMutatesSuggestions(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64, nRaw, rminRaw uint8) bool {
				dom := testDomain(nRaw, rminRaw)
				pol, err := New(name, dom, testConfig(), sim.NewRNG(seed))
				if err != nil {
					t.Fatalf("New(%s): %v", name, err)
				}
				var issued [][]float64
				var snap [][]uint64
				for i := 0; i < propertyRounds; i++ {
					p, err := pol.Next()
					if err != nil {
						t.Fatalf("Next %d: %v", i, err)
					}
					bits := make([]uint64, len(p))
					for j, v := range p {
						bits[j] = math.Float64bits(v)
					}
					issued = append(issued, p)
					snap = append(snap, bits)
					if err := pol.Observe(p, syntheticCost(p)); err != nil {
						t.Fatalf("Observe %d: %v", i, err)
					}
				}
				for i, p := range issued {
					for j, v := range p {
						if math.Float64bits(v) != snap[i][j] {
							t.Logf("suggestion %d mutated at dim %d", i, j)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPolicyReseedReplaysIdentically: two instances built from the same
// seed and fed the same observations emit bit-identical suggestion streams.
func TestPolicyReseedReplaysIdentically(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64, nRaw, rminRaw uint8) bool {
				dom := testDomain(nRaw, rminRaw)
				a, err := New(name, dom, testConfig(), sim.NewRNG(seed))
				if err != nil {
					t.Fatalf("New(%s): %v", name, err)
				}
				b, err := New(name, dom, testConfig(), sim.NewRNG(seed))
				if err != nil {
					t.Fatalf("New(%s): %v", name, err)
				}
				for i := 0; i < propertyRounds; i++ {
					pa, err := a.Next()
					if err != nil {
						t.Fatalf("a.Next %d: %v", i, err)
					}
					pb, err := b.Next()
					if err != nil {
						t.Fatalf("b.Next %d: %v", i, err)
					}
					if !samePoint(pa, pb) {
						t.Logf("suggestion %d diverged: %v vs %v", i, pa, pb)
						return false
					}
					cost := syntheticCost(pa)
					if err := a.Observe(pa, cost); err != nil {
						t.Fatalf("a.Observe %d: %v", i, err)
					}
					if err := b.Observe(pb, cost); err != nil {
						t.Fatalf("b.Observe %d: %v", i, err)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
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

// TestDurableRoundTrip drives each policy, snapshots it, restores through
// the registry, and requires the restored instance to continue
// bit-identically with the uninterrupted original. The cuts sit inside the
// warm-up, mid-generation, on a generation boundary and two generations
// in (CMA-ES's λ, with the warm-up, sets where those fall for every
// entrant alike), and each continuation crosses a generation boundary.
func TestDurableRoundTrip(t *testing.T) {
	dom := bo.Domain{N: 3, RMin: 0.1}
	cfg := testConfig()
	cma, err := NewCMAES(dom, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	init, lambda := cfg.InitSamples, cma.lambda
	cuts := []int{init - 1, init + lambda/2, init + lambda, init + 2*lambda + 3}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, cut := range cuts {
				pol, err := New(name, dom, cfg, sim.NewRNG(99))
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				for i := 0; i < cut; i++ {
					p, err := pol.Next()
					if err != nil {
						t.Fatalf("Next %d: %v", i, err)
					}
					if err := pol.Observe(p, syntheticCost(p)); err != nil {
						t.Fatalf("Observe %d: %v", i, err)
					}
				}
				restored, err := Restore(name, dom, cfg, pol.ExportState())
				if err != nil {
					t.Fatalf("cut %d: Restore: %v", cut, err)
				}
				if got, want := restored.Observations(), pol.Observations(); got != want {
					t.Fatalf("cut %d: restored observations = %d, want %d", cut, got, want)
				}
				for i := 0; i <= lambda; i++ {
					want, err := pol.Next()
					if err != nil {
						t.Fatalf("original Next: %v", err)
					}
					got, err := restored.Next()
					if err != nil {
						t.Fatalf("restored Next: %v", err)
					}
					if !samePoint(got, want) {
						t.Fatalf("cut %d: post-restore suggestion %d = %v, want bit-identical %v", cut, i, got, want)
					}
					cost := syntheticCost(want)
					if err := pol.Observe(want, cost); err != nil {
						t.Fatalf("original Observe: %v", err)
					}
					if err := restored.Observe(got, cost); err != nil {
						t.Fatalf("restored Observe: %v", err)
					}
				}
			}
		})
	}
}

// TestCMAESGenerationFollowsObservations: a generation is the observations
// themselves, ranked by their own costs, whatever was suggested in
// between. A suggest whose response was lost (the RNG advanced, nothing
// observed) and an observation of a point the policy never suggested must
// both leave CMA-ES where a fresh instance at the same RNG position, fed
// the same observations, would be.
func TestCMAESGenerationFollowsObservations(t *testing.T) {
	dom := bo.Domain{N: 3, RMin: 0.1}
	cfg := testConfig()
	for _, tc := range []struct {
		name string
		skew func(c *CMAES) []float64 // returns the point to observe
	}{
		{"lost suggest", func(c *CMAES) []float64 {
			if _, err := c.Next(); err != nil {
				t.Fatal(err)
			}
			p, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"foreign point", func(c *CMAES) []float64 { return dom.Sample(sim.NewRNG(uint64(c.Observations()))) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				live, err := NewCMAES(dom, cfg, sim.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				step := func(c *CMAES, p []float64) {
					if err := c.Observe(p, syntheticCost(p)); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < cfg.InitSamples+2; i++ {
					p, err := live.Next()
					if err != nil {
						t.Fatal(err)
					}
					step(live, p)
				}
				step(live, tc.skew(live))

				fresh, err := NewCMAES(dom, cfg, sim.NewRNG(live.RNG().State()))
				if err != nil {
					t.Fatal(err)
				}
				xs, ys := live.Data()
				for i, x := range xs {
					if err := fresh.Observe(x, ys[i]); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3*live.lambda; i++ {
					want, err := fresh.Next()
					if err != nil {
						t.Fatal(err)
					}
					got, err := live.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !samePoint(got, want) {
						t.Fatalf("seed %d: suggestion %d after the skew = %v, want %v", seed, i, got, want)
					}
					step(live, got)
					step(fresh, want)
				}
			}
		})
	}
}

// FuzzPolicyRestore drives a random entrant through a random interleaving
// of suggest+observe, suggests whose response is lost, observations of
// points the policy never suggested, and rejected observations (a NaN cost
// or a point outside the domain), snapshots it at a random cut, and
// requires the restored policy to continue bit-identically. A rejected
// observation must fail on every policy and change nothing: the exported
// state stays put, and a policy restored from that state follows the rest
// of the script bit-identically too.
func FuzzPolicyRestore(f *testing.F) {
	for i := range Names() {
		f.Add(uint8(i), uint64(i+1), uint8(2), []byte{0, 0, 0, 4, 2, 0, 3, 0, 0, 0, 9, 0, 0, 0, 2, 0, 4, 0, 0, 0, 0, 0, 0, 0}, uint8(9))
	}
	// Past the warm-up on foreign points, then two rejected out-of-domain
	// points: a Thompson sampler that counts a point before checking it
	// suggests differently afterwards.
	for i := range Names() {
		f.Add(uint8(i), uint64(4), uint8(2), []byte{3, 3, 3, 3, 3, 3, 9, 9}, uint8(7))
	}
	f.Fuzz(func(t *testing.T, which uint8, seed uint64, nRaw uint8, script []byte, cutRaw uint8) {
		names := Names()
		name := names[int(which)%len(names)]
		dom := bo.Domain{N: 1 + int(nRaw%5), RMin: 0.1}
		cfg := testConfig()
		if len(script) > 64 {
			script = script[:64]
		}
		cut := int(cutRaw) % (len(script) + 1)
		live, err := New(name, dom, cfg, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		outside := sim.NewRNG(^seed)
		// followers are restored copies of live that must stay in lockstep
		// with it: the one restored at the cut, and one restored after each
		// rejected observation.
		var followers []bo.Policy
		follow := func(op int) {
			p, err := Restore(name, dom, cfg, live.ExportState())
			if err != nil {
				t.Fatalf("%s: Restore at %d: %v", name, op, err)
			}
			followers = append(followers, p)
		}
		observe := func(p []float64) {
			cost := syntheticCost(p)
			for _, pol := range append([]bo.Policy{live}, followers...) {
				if err := pol.Observe(p, cost); err != nil {
					t.Fatal(err)
				}
			}
		}
		reject := func(op int, nanCost bool) {
			bad := dom.Sample(outside)
			cost := syntheticCost(bad)
			if nanCost {
				cost = math.NaN()
			} else {
				bad[dom.N] = -1
			}
			for _, pol := range append([]bo.Policy{live}, followers...) {
				before := pol.ExportState()
				if err := pol.Observe(bad, cost); err == nil {
					t.Fatalf("%s: op %d: Observe(%v, %v) accepted", name, op, bad, cost)
				}
				if !reflect.DeepEqual(pol.ExportState(), before) {
					t.Fatalf("%s: op %d: a rejected observation changed the state", name, op)
				}
			}
			follow(op)
		}
		for i := 0; i <= len(script); i++ {
			if i == cut {
				follow(i)
			}
			if i == len(script) {
				break
			}
			switch script[i] % 5 {
			case 3:
				observe(dom.Sample(outside))
				continue
			case 4:
				reject(i, script[i]/5%2 == 0)
			}
			p, err := live.Next()
			if err != nil {
				t.Fatal(err)
			}
			for k, pol := range followers {
				q, err := pol.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !samePoint(q, p) {
					t.Fatalf("%s: op %d (cut %d): follower %d suggests %v, want %v", name, i, cut, k, q, p)
				}
			}
			if script[i]%5 != 2 {
				observe(p)
			}
		}
		for _, pol := range followers {
			if got, want := pol.Observations(), live.Observations(); got != want {
				t.Fatalf("%s: restored observations = %d, want %d", name, got, want)
			}
		}
	})
}

// TestRegistry pins the registry surface: name set, aliasing, validation.
func TestRegistry(t *testing.T) {
	want := []string{"cmaes", "gp-ei", "linucb", "random", "thompson"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range append(want, "") {
		if !Valid(name) {
			t.Errorf("Valid(%q) = false", name)
		}
	}
	if Valid("nope") {
		t.Error("Valid(nope) = true")
	}
	if Canonical(NameGPEI) != "" || Canonical(NameLinUCB) != NameLinUCB {
		t.Error("Canonical aliasing broken")
	}
	if _, err := New("nope", bo.Domain{N: 2, RMin: 0.1}, testConfig(), sim.NewRNG(1)); err == nil ||
		!strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("New(nope) err = %v, want unknown policy", err)
	}
	// The GP-EI default resolves through both spellings to the same type.
	a, err := New("", bo.Domain{N: 2, RMin: 0.1}, testConfig(), sim.NewRNG(1))
	if err != nil {
		t.Fatalf("New(\"\"): %v", err)
	}
	if _, ok := a.(*bo.Optimizer); !ok {
		t.Fatalf("New(\"\") = %T, want *bo.Optimizer", a)
	}
}

// TestGPEIBitIdenticalThroughRegistry: the registry-constructed GP-EI is
// the same code path as a direct bo.NewOptimizer — the Policy extraction
// must not perturb a single bit of the reference stream.
func TestGPEIBitIdenticalThroughRegistry(t *testing.T) {
	dom := bo.Domain{N: 3, RMin: 0.1}
	cfg := testConfig()
	viaRegistry, err := New(NameGPEI, dom, cfg, sim.NewRNG(7))
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	direct, err := bo.NewOptimizer(dom, cfg, sim.NewRNG(7))
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	for i := 0; i < 10; i++ {
		pr, err := viaRegistry.Next()
		if err != nil {
			t.Fatalf("registry Next: %v", err)
		}
		pd, err := direct.Next()
		if err != nil {
			t.Fatalf("direct Next: %v", err)
		}
		if !samePoint(pr, pd) {
			t.Fatalf("suggestion %d: registry %v != direct %v", i, pr, pd)
		}
		cost := syntheticCost(pr)
		if err := viaRegistry.Observe(pr, cost); err != nil {
			t.Fatal(err)
		}
		if err := direct.Observe(pd, cost); err != nil {
			t.Fatal(err)
		}
	}
}
