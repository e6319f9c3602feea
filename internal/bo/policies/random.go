package policies

import (
	"fmt"
	"math"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/sim"
)

// Random is pure random search: every suggestion is an independent uniform
// draw from the domain (Dirichlet(1) on the simplex, uniform ratio). It is
// the arena's floor — any policy that cannot beat it is not learning — and
// together with the oracle enumeration in internal/experiments it brackets
// the achievable cost range. Trivially durable: its entire state is the
// RNG position (the history matters only for Best).
type Random struct {
	dom bo.Domain
	rng *sim.RNG

	xs [][]float64
	ys []float64
}

// NewRandom builds the policy over dom. cfg is accepted for registry
// uniformity; random search has no parameters.
func NewRandom(dom bo.Domain, _ bo.Config, rng *sim.RNG) (*Random, error) {
	if err := dom.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("policies: random nil RNG")
	}
	return &Random{dom: dom, rng: rng}, nil
}

// Next draws a fresh uniform configuration.
func (r *Random) Next() ([]float64, error) {
	return r.dom.Sample(r.rng), nil
}

// Observe records the measured cost (random search only uses it for Best).
func (r *Random) Observe(p []float64, cost float64) error {
	if !r.dom.Contains(p) {
		return fmt.Errorf("policies: random observed point %v outside domain", p)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return fmt.Errorf("policies: random non-finite cost %v", cost)
	}
	r.xs = append(r.xs, append([]float64(nil), p...))
	r.ys = append(r.ys, cost)
	return nil
}

// Observations returns the number of recorded (point, cost) pairs.
func (r *Random) Observations() int { return len(r.xs) }

// Best returns the lowest-cost observed point.
func (r *Random) Best() ([]float64, float64, bool) {
	return bestOf(r.xs, r.ys)
}

// ExportState deep-copies the resumable state.
func (r *Random) ExportState() *bo.OptimizerState {
	return historyState(r.rng, r.xs, r.ys)
}
