package policies

import (
	"math"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/sim"
)

// Random is pure random search: every suggestion is an independent uniform
// draw from the domain (Dirichlet(1) on the simplex, uniform ratio), a
// warm-up that never hands over to a model. It is the arena's floor — any
// policy that cannot beat it is not learning — and together with the
// oracle enumeration in internal/experiments it brackets the achievable
// cost range. Its observations are recorded and snapshotted like every
// entrant's, but no suggestion reads them.
type Random struct {
	bo.History
}

// NewRandom builds the policy over dom. cfg is accepted for registry
// uniformity; random search has no parameters.
func NewRandom(dom bo.Domain, _ bo.Config, rng *sim.RNG) (*Random, error) {
	h, err := bo.NewHistory(dom, math.MaxInt, rng)
	if err != nil {
		return nil, err
	}
	return &Random{History: h}, nil
}

// Next draws a fresh uniform configuration.
func (r *Random) Next() ([]float64, error) {
	p, _ := r.WarmUp()
	return p, nil
}
