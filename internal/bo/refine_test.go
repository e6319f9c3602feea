package bo

import (
	"fmt"
	"math"
	"testing"

	"github.com/mar-hbo/hbo/internal/sim"
)

// serialNext is Next with the refinement as one loop over the steps: each
// step draws its normals, perturbs the current point, scores it alone
// through PredictInto, and moves there or shrinks the step. It is the
// reference Optimizer.refine's quad-at-a-time search must match.
func serialNext(o *Optimizer) ([]float64, error) {
	if p, ok := o.WarmUp(); ok {
		return p, nil
	}
	start, topEI, best, err := o.bestOfPool()
	if err != nil {
		return nil, err
	}
	top := append([]float64(nil), start...)
	cand := make([]float64, len(top))
	var scratch PredictScratch
	step := 0.2
	for i := 0; i < o.cfg.RefineSteps; i++ {
		o.perturbInto(cand, top, step)
		mean, variance := o.gp.PredictInto(cand, &scratch)
		if ei := o.cfg.Acquisition.Score(mean, variance, best); ei > topEI {
			topEI = ei
			top, cand = cand, top
		} else {
			step *= 0.93
		}
	}
	return top, nil
}

// TestRefineMatchesSerial runs identically seeded optimizers on the same
// database through Next and through serialNext, over seeds, database sizes
// (the first GP-phase suggestion and deeper), refinement budgets on and
// around a quad's edges, and every acquisition. The suggestions must agree
// bit for bit, and both RNGs must end at the same position. Two rounds per
// case also cover a refinement that follows a drawn one.
func TestRefineMatchesSerial(t *testing.T) {
	dom := Domain{N: 3, RMin: 0.1}
	cost := func(p []float64) float64 {
		c := 0.0
		for i, v := range p {
			c += float64(i+1) * (v - 0.35) * (v - 0.35)
		}
		return c + 0.1*math.Sin(9*p[0])
	}
	acqs := []Acquisition{EI{}, PI{Xi: 0.01}, LCB{Beta: 2}}
	for seed := uint64(1); seed <= 10; seed++ {
		for _, n := range []int{5, 6, 20, 59} {
			for _, steps := range []int{0, 1, 3, 4, 5, 60, 61} {
				for _, acq := range acqs {
					name := fmt.Sprintf("seed %d n %d steps %d %s", seed, n, steps, acq.Name())
					cfg := DefaultConfig()
					cfg.RefineSteps = steps
					cfg.Acquisition = acq
					got, err := NewOptimizer(dom, cfg, sim.NewRNG(seed))
					if err != nil {
						t.Fatal(err)
					}
					want, err := NewOptimizer(dom, cfg, sim.NewRNG(seed))
					if err != nil {
						t.Fatal(err)
					}
					data := sim.NewRNG(seed + 100)
					for range n {
						p := dom.Sample(data)
						for _, o := range []*Optimizer{got, want} {
							if err := o.Observe(p, cost(p)); err != nil {
								t.Fatal(err)
							}
						}
					}
					for round := range 2 {
						p, err := got.Next()
						if err != nil {
							t.Fatal(err)
						}
						q, err := serialNext(want)
						if err != nil {
							t.Fatal(err)
						}
						for d := range q {
							if math.Float64bits(p[d]) != math.Float64bits(q[d]) {
								t.Fatalf("%s round %d: Next %v, serial refinement %v", name, round, p, q)
							}
						}
						if g, w := got.ExportState().RNGState, want.ExportState().RNGState; g != w {
							t.Fatalf("%s round %d: RNG at %#x, serial refinement's at %#x", name, round, g, w)
						}
						for _, o := range []*Optimizer{got, want} {
							if err := o.Observe(q, cost(q)); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	}
}
