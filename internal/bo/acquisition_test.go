package bo

import (
	"math"
	"testing"

	"github.com/mar-hbo/hbo/internal/sim"
)

func TestPIProperties(t *testing.T) {
	pi := PI{Xi: 0.01}
	// Certain improvement.
	if s := pi.Score(0, 1e-16, 1); s != 1 {
		t.Fatalf("certain improvement PI = %v, want 1", s)
	}
	// Certain non-improvement.
	if s := pi.Score(2, 1e-16, 1); s != 0 {
		t.Fatalf("certain non-improvement PI = %v, want 0", s)
	}
	// Scores are probabilities.
	for _, mean := range []float64{-2, 0, 1, 3} {
		for _, v := range []float64{0.01, 1, 10} {
			s := pi.Score(mean, v, 1)
			if s < 0 || s > 1 {
				t.Fatalf("PI(%v,%v) = %v out of [0,1]", mean, v, s)
			}
		}
	}
	// PI's known conservatism: at equal mean just above best, EI still
	// assigns meaningful value to high variance, PI only via the tail.
	eiGain := EI{}.Score(1.05, 4, 1) / EI{}.Score(1.05, 0.04, 1)
	piGain := pi.Score(1.05, 4, 1) / math.Max(pi.Score(1.05, 0.04, 1), 1e-300)
	if eiGain <= 1 {
		t.Fatalf("EI should reward extra variance, gain %v", eiGain)
	}
	_ = piGain // PI's gain explodes from ~0; the point is EI stays bounded and smooth
}

func TestLCBProperties(t *testing.T) {
	l := LCB{Beta: 2}
	// Lower mean scores higher.
	if l.Score(0, 1, 0) <= l.Score(1, 1, 0) {
		t.Fatal("LCB should prefer lower posterior mean")
	}
	// More variance scores higher (optimism under uncertainty).
	if l.Score(1, 4, 0) <= l.Score(1, 1, 0) {
		t.Fatal("LCB should prefer higher variance")
	}
	// Beta controls the trade-off.
	timid := LCB{Beta: 0.1}
	if timid.Score(1, 4, 0)-timid.Score(1, 1, 0) >= l.Score(1, 4, 0)-l.Score(1, 1, 0) {
		t.Fatal("larger Beta should weight variance more")
	}
	if name := (LCB{Beta: 2.0}).Name(); name != "LCB(2.0)" {
		t.Fatalf("LCB name = %s", name)
	}
}

func TestOptimizerWorksWithEveryAcquisition(t *testing.T) {
	cost := func(p []float64) float64 {
		dx := p[3] - 0.7
		return (1-p[2])*0.8 + 3*dx*dx
	}
	dom := Domain{N: 3, RMin: 0.3}
	for _, acq := range []Acquisition{EI{}, PI{Xi: 0.01}, LCB{Beta: 2}} {
		cfg := DefaultConfig()
		cfg.Acquisition = acq
		opt, err := NewOptimizer(dom, cfg, sim.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			p, err := opt.Next()
			if err != nil {
				t.Fatalf("%s: %v", acq.Name(), err)
			}
			if !dom.Contains(p) {
				t.Fatalf("%s: suggestion outside domain", acq.Name())
			}
			if err := opt.Observe(p, cost(p)); err != nil {
				t.Fatal(err)
			}
		}
		_, ys := opt.Data()
		if best := ys[opt.BestIndex()]; best > 0.6 {
			t.Errorf("%s: best cost %v after 20 iterations, want < 0.6", acq.Name(), best)
		}
	}
}

func TestNilAcquisitionDefaultsToEI(t *testing.T) {
	dom := Domain{N: 2, RMin: 0.1}
	cfg := DefaultConfig()
	cfg.Acquisition = nil
	opt, err := NewOptimizer(dom, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p, err := opt.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Observe(p, p[0]); err != nil {
			t.Fatal(err)
		}
	}
}
