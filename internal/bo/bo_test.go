package bo

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/mar-hbo/hbo/internal/sim"
)

func TestMatern52Properties(t *testing.T) {
	k := Matern52{LengthScale: 1, SignalVar: 1}
	a := []float64{0.2, 0.3, 0.5}
	if v := k.Eval(a, a); math.Abs(v-1) > 1e-12 {
		t.Fatalf("k(a,a) = %v, want SignalVar", v)
	}
	b := []float64{0.9, 0.0, 0.1}
	if k.Eval(a, b) != k.Eval(b, a) {
		t.Fatal("kernel not symmetric")
	}
	// Decreasing in distance.
	near := k.Eval(a, []float64{0.25, 0.3, 0.45})
	far := k.Eval(a, []float64{1, 1, 1})
	if near <= far {
		t.Fatalf("kernel should decay with distance: near %v, far %v", near, far)
	}
	if far < 0 {
		t.Fatalf("kernel negative: %v", far)
	}
}

func TestGPInterpolates(t *testing.T) {
	gp, err := NewGP(Matern52{LengthScale: 1, SignalVar: 1}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{{0}, {0.5}, {1}, {1.5}, {2}}
	f := func(x float64) float64 { return math.Sin(2 * x) }
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x[0])
	}
	if err := gp.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	// At data points: near-exact interpolation, near-zero variance.
	for i, x := range xs {
		m, v := gp.Predict(x)
		if math.Abs(m-ys[i]) > 1e-3 {
			t.Errorf("mean at %v = %v, want %v", x, m, ys[i])
		}
		if v > 1e-4 {
			t.Errorf("variance at data point %v = %v, want ~0", x, v)
		}
	}
	// Between data points: reasonable prediction, positive variance.
	m, v := gp.Predict([]float64{0.75})
	if math.Abs(m-f(0.75)) > 0.1 {
		t.Errorf("interpolated mean = %v, want ~%v", m, f(0.75))
	}
	if v <= 0 {
		t.Errorf("interpolated variance = %v, want > 0", v)
	}
	// Far away: mean reverts toward the data mean, variance grows.
	_, vFar := gp.Predict([]float64{10})
	if vFar <= v {
		t.Errorf("variance should grow away from data: %v vs %v", vFar, v)
	}
}

func TestGPVarianceNonNegativeProperty(t *testing.T) {
	gp, err := NewGP(Matern52{LengthScale: 1, SignalVar: 1}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	xs := make([][]float64, 12)
	ys := make([]float64, 12)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = rng.Norm()
	}
	if err := gp.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint16) bool {
		p := []float64{float64(a) / 65535 * 2, float64(b) / 65535 * 2}
		m, v := gp.Predict(p)
		return v >= 0 && !math.IsNaN(m) && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGPFitErrors(t *testing.T) {
	gp, err := NewGP(Matern52{LengthScale: 1, SignalVar: 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := gp.Fit(nil, nil); err == nil {
		t.Fatal("empty fit succeeded")
	}
	if err := gp.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched fit succeeded")
	}
	if _, err := NewGP(Matern52{LengthScale: 1, SignalVar: 1}, 0); err == nil {
		t.Fatal("zero noise accepted")
	}
}

func TestGPDuplicatePointsNeedJitter(t *testing.T) {
	gp, err := NewGP(Matern52{LengthScale: 1, SignalVar: 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{{0.5}, {0.5}, {0.5}}
	ys := []float64{1, 1.01, 0.99}
	if err := gp.Fit(xs, ys); err != nil {
		t.Fatalf("duplicate points should be handled with jitter: %v", err)
	}
	m, _ := gp.Predict([]float64{0.5})
	if math.Abs(m-1) > 0.05 {
		t.Fatalf("mean at duplicated point = %v, want ~1", m)
	}
}

func TestExpectedImprovement(t *testing.T) {
	// A point predicted to be well below best with certainty: EI ~= gap.
	if ei := ExpectedImprovement(0, 1e-16, 1); math.Abs(ei-1) > 1e-6 {
		t.Fatalf("certain-improvement EI = %v, want 1", ei)
	}
	// Certain non-improvement: zero.
	if ei := ExpectedImprovement(2, 1e-16, 1); ei != 0 {
		t.Fatalf("certain-worse EI = %v, want 0", ei)
	}
	// Uncertainty at the same mean still has positive EI.
	if ei := ExpectedImprovement(1, 1, 1); ei <= 0 {
		t.Fatalf("uncertain EI = %v, want > 0", ei)
	}
	// More variance, more EI at equal mean.
	if ExpectedImprovement(1, 4, 1) <= ExpectedImprovement(1, 1, 1) {
		t.Fatal("EI should grow with variance")
	}
}

func TestDomainSampleAndProject(t *testing.T) {
	dom := Domain{N: 3, RMin: 0.2}
	rng := sim.NewRNG(5)
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		p := dom.Sample(r)
		return dom.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Project arbitrary garbage into the domain.
	for i := 0; i < 200; i++ {
		p := []float64{rng.Norm() * 3, rng.Norm() * 3, rng.Norm() * 3, rng.Norm() * 3}
		dom.Project(p)
		if !dom.Contains(p) {
			t.Fatalf("projected point %v outside domain", p)
		}
	}
	// All-negative proportions fall back to uniform.
	p := []float64{-1, -2, -3, 0.5}
	dom.Project(p)
	if math.Abs(p[0]-1.0/3) > 1e-12 {
		t.Fatalf("degenerate projection = %v", p)
	}
}

func TestDomainValidate(t *testing.T) {
	if err := (Domain{N: 0, RMin: 0.1}).Validate(); err == nil {
		t.Fatal("N=0 accepted")
	}
	if err := (Domain{N: 2, RMin: 1.5}).Validate(); err == nil {
		t.Fatal("RMin>1 accepted")
	}
}

func TestOptimizerMinimizesSyntheticCost(t *testing.T) {
	// Cost rewards putting proportion on resource 2 and a ratio near 0.7 —
	// a smooth stand-in for the HBO landscape.
	cost := func(p []float64) float64 {
		dx := p[3] - 0.7
		return (1-p[2])*0.8 + 3*dx*dx
	}
	dom := Domain{N: 3, RMin: 0.3}
	opt, err := NewOptimizer(dom, DefaultConfig(), sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 20; iter++ {
		p, err := opt.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !dom.Contains(p) {
			t.Fatalf("suggestion %v outside domain", p)
		}
		if err := opt.Observe(p, cost(p)); err != nil {
			t.Fatal(err)
		}
	}
	xs, ys := opt.Data()
	best, bestCost := xs[opt.BestIndex()], ys[opt.BestIndex()]
	if bestCost > 0.25 {
		t.Fatalf("best cost after 20 iters = %v (point %v), want <= 0.25", bestCost, best)
	}
	if best[2] < 0.5 {
		t.Fatalf("best point %v did not discover resource-2 preference", best)
	}
	if math.Abs(best[3]-0.7) > 0.2 {
		t.Fatalf("best ratio %v, want near 0.7", best[3])
	}
}

func TestOptimizerBeatsRandomSearch(t *testing.T) {
	cost := func(p []float64) float64 {
		// Narrow valley: needs exploitation to find.
		d := 0.0
		target := []float64{0.1, 0.6, 0.3, 0.8}
		for i := range p {
			diff := p[i] - target[i]
			d += diff * diff
		}
		return d
	}
	dom := Domain{N: 3, RMin: 0.2}
	run := func(bayes bool, seed uint64) float64 {
		rng := sim.NewRNG(seed)
		opt, err := NewOptimizer(dom, DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for i := 0; i < 25; i++ {
			var p []float64
			if bayes {
				p, err = opt.Next()
				if err != nil {
					t.Fatal(err)
				}
			} else {
				p = dom.Sample(rng)
			}
			c := cost(p)
			if bayes {
				if err := opt.Observe(p, c); err != nil {
					t.Fatal(err)
				}
			}
			if c < best {
				best = c
			}
		}
		return best
	}
	var bayesSum, randSum float64
	const trials = 5
	for s := uint64(0); s < trials; s++ {
		bayesSum += run(true, 100+s)
		randSum += run(false, 100+s)
	}
	if bayesSum >= randSum {
		t.Fatalf("BO (%v) not better than random (%v) on average", bayesSum/trials, randSum/trials)
	}
}

func TestOptimizerObserveRejectsBadInput(t *testing.T) {
	dom := Domain{N: 2, RMin: 0.2}
	opt, err := NewOptimizer(dom, DefaultConfig(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Observe([]float64{0.5, 0.5, 0.5}, math.NaN()); err == nil {
		t.Fatal("NaN cost accepted")
	}
	if err := opt.Observe([]float64{2, -1, 0.5}, 1); err == nil {
		t.Fatal("out-of-domain point accepted")
	}
	if n := opt.Observations(); n != 0 {
		t.Fatalf("rejected observations recorded: %d", n)
	}
}

func TestOptimizerDeterminism(t *testing.T) {
	dom := Domain{N: 3, RMin: 0.3}
	run := func() []float64 {
		opt, err := NewOptimizer(dom, DefaultConfig(), sim.NewRNG(77))
		if err != nil {
			t.Fatal(err)
		}
		var last []float64
		for i := 0; i < 8; i++ {
			p, err := opt.Next()
			if err != nil {
				t.Fatal(err)
			}
			if err := opt.Observe(p, p[0]*2+p[3]); err != nil {
				t.Fatal(err)
			}
			last = p
		}
		return last
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("optimizer not deterministic: %v vs %v", a, b)
		}
	}
}

func TestDistance(t *testing.T) {
	if d := Distance([]float64{0, 0}, []float64{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance = %v, want 5", d)
	}
}

func TestNewOptimizerValidation(t *testing.T) {
	dom := Domain{N: 2, RMin: 0.1}
	if _, err := NewOptimizer(dom, Config{InitSamples: 0, Candidates: 1, LengthScale: 1, NoiseVar: 1e-3}, sim.NewRNG(1)); err == nil {
		t.Fatal("InitSamples=0 accepted")
	}
	if _, err := NewOptimizer(dom, DefaultConfig(), nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
	bad := DefaultConfig()
	bad.LengthScale = 0
	if _, err := NewOptimizer(dom, bad, sim.NewRNG(1)); err == nil {
		t.Fatal("zero length scale accepted")
	}
}
