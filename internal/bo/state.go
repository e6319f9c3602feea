package bo

import (
	"fmt"
	"math"

	"github.com/mar-hbo/hbo/internal/sim"
)

// OptimizerState is the complete serializable state of an Optimizer: the
// observation database and the RNG position. The GP surrogate is not part
// of it: the surrogate is a function of the database and the fixed kernel,
// and a restored optimizer refits it at its first Next.
//
// The state captures everything Next depends on: because the incremental
// appendRow path and a from-scratch refit perform bit-identical arithmetic
// (see gp.go), an optimizer rebuilt from this state produces exactly the
// suggestion stream the exported optimizer would have produced.
type OptimizerState struct {
	// RNGState is the seeded generator's current position (sim.RNG.State).
	RNGState uint64
	// X and Y are the observation database (Algorithm 1's D).
	X [][]float64
	Y []float64
}

// ExportState deep-copies the optimizer's resumable state.
func (o *Optimizer) ExportState() *OptimizerState {
	st := &OptimizerState{
		RNGState: o.rng.State(),
		X:        make([][]float64, len(o.xs)),
		Y:        append([]float64(nil), o.ys...),
	}
	for i, x := range o.xs {
		st.X[i] = append([]float64(nil), x...)
	}
	return st
}

// NewOptimizerFromState rebuilds an optimizer from an exported state. The
// domain and config must match the exporting optimizer's; the state is
// validated defensively (snapshots cross a disk/network boundary) and
// deep-copied, so the caller may keep mutating it.
func NewOptimizerFromState(dom Domain, cfg Config, st *OptimizerState) (*Optimizer, error) {
	if st == nil {
		return nil, fmt.Errorf("bo: nil optimizer state")
	}
	o, err := NewOptimizer(dom, cfg, sim.NewRNG(st.RNGState))
	if err != nil {
		return nil, err
	}
	if len(st.X) != len(st.Y) {
		return nil, fmt.Errorf("bo: state has %d points but %d costs", len(st.X), len(st.Y))
	}
	o.xs = make([][]float64, len(st.X))
	o.ys = append([]float64(nil), st.Y...)
	for i, x := range st.X {
		if !dom.Contains(x) {
			return nil, fmt.Errorf("bo: state point %d outside domain", i)
		}
		if math.IsNaN(st.Y[i]) || math.IsInf(st.Y[i], 0) {
			return nil, fmt.Errorf("bo: state cost %d is non-finite", i)
		}
		o.xs[i] = append([]float64(nil), x...)
	}
	return o, nil
}
