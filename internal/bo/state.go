package bo

import (
	"fmt"
	"math"

	"github.com/mar-hbo/hbo/internal/sim"
)

// History is Algorithm 1's observation database D together with what every
// policy reads it with: the domain its points live in, the seeded RNG every
// draw comes from, and the warm-up length (Config.InitSamples). Every
// registered policy embeds it, so D, its input checks, the incumbent scan,
// the warm-up draws and the snapshot exist once; a policy adds only its own
// model. Build one with NewHistory.
type History struct {
	dom    Domain
	rng    *sim.RNG
	warmup int

	xs [][]float64
	ys []float64
}

// NewHistory returns an empty database over dom drawing from rng, whose
// first warmup suggestions are uniform draws (WarmUp).
func NewHistory(dom Domain, warmup int, rng *sim.RNG) (History, error) {
	if err := dom.Validate(); err != nil {
		return History{}, err
	}
	if warmup < 1 {
		return History{}, fmt.Errorf("bo: InitSamples must be >= 1, got %d", warmup)
	}
	if rng == nil {
		return History{}, fmt.Errorf("bo: nil RNG")
	}
	return History{dom: dom, rng: rng, warmup: warmup}, nil
}

// Domain returns the search space the database lives in.
func (h *History) Domain() Domain { return h.dom }

// RNG returns the seeded generator every draw of the policy comes from.
func (h *History) RNG() *sim.RNG { return h.rng }

// Data returns the recorded points and their costs, in observation order.
// The slices are shared with the database and must not be modified.
func (h *History) Data() ([][]float64, []float64) { return h.xs, h.ys }

// Observations returns the number of recorded (point, cost) pairs.
func (h *History) Observations() int { return len(h.xs) }

// Observe records the measured cost of a point; it is Algorithm 1's
// database update (line 26). A point outside the domain or a non-finite
// cost is rejected and leaves the database unchanged.
func (h *History) Observe(p []float64, cost float64) error {
	if !h.dom.Contains(p) {
		return fmt.Errorf("bo: observed point %v outside domain", p)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return fmt.Errorf("bo: non-finite cost %v", cost)
	}
	h.xs = append(h.xs, append([]float64(nil), p...))
	h.ys = append(h.ys, cost)
	return nil
}

// BestIndex returns the index of the first lowest-cost observation, the
// incumbent; there must be at least one observation.
func (h *History) BestIndex() int {
	bi := 0
	for i, y := range h.ys {
		if y < h.ys[bi] {
			bi = i
		}
	}
	return bi
}

// PastWarmUp returns how many observations were recorded after the
// warm-up: negative while it runs, 0 the moment it completes.
func (h *History) PastWarmUp() int { return len(h.xs) - h.warmup }

// WarmUp returns a uniform draw from the domain while the warm-up runs
// (Algorithm 1's random initialization), and ok=false once the policy's
// own model takes over.
func (h *History) WarmUp() (p []float64, ok bool) {
	if h.PastWarmUp() < 0 {
		return h.dom.Sample(h.rng), true
	}
	return nil, false
}

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

// ExportState deep-copies the resumable state: the RNG position and D.
func (h *History) ExportState() *OptimizerState {
	st := &OptimizerState{
		RNGState: h.rng.State(),
		X:        make([][]float64, len(h.xs)),
		Y:        append([]float64(nil), h.ys...),
	}
	for i, x := range h.xs {
		st.X[i] = append([]float64(nil), x...)
	}
	return st
}
