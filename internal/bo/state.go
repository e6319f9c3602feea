package bo

// OptimizerState is the complete serializable state of a Policy: the
// observation database and the RNG position. For the GP-EI Optimizer the
// surrogate is not part of it: the surrogate is a function of the database
// and the fixed kernel, and a restored optimizer refits it at its first
// Next.
//
// The state captures everything Next depends on: because the incremental
// appendRow path and a from-scratch refit perform bit-identical arithmetic
// (see gp.go), an optimizer rebuilt from this state (policies.Restore)
// produces exactly the suggestion stream the exported optimizer would have
// produced.
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
