package bo

// Policy is the pluggable contract over the joint (c_t, x_t) search: any
// sequential decision procedure that suggests points in a Domain and learns
// from observed costs. The GP-EI Optimizer is the reference implementation;
// rival entrants (bandits, evolution strategies, random search) live in
// internal/bo/policies and race under internal/experiments' arena harness.
//
// The determinism contract every implementation must honor:
//
//   - All randomness flows through a seeded *sim.RNG supplied at
//     construction. No wall clock, no global math/rand, no map-iteration
//     order may influence a suggestion.
//   - Next is a pure function of (construction parameters, RNG position,
//     observation history): two policies built identically and fed the same
//     Observe sequence emit bit-identical suggestion streams. Next may
//     advance the RNG; anything else it keeps is derived from the history,
//     so a suggestion that is never observed costs only its draws.
//   - Observe must not retroactively mutate a slice previously returned by
//     Next; suggestions are owned by the caller once returned.
//
// Every implementation embeds History, which owns the observation database
// D and supplies Observe (its checks and the append), Observations and
// ExportState; a policy with a model of its own wraps Observe to update it.
// Callers that want the incumbent track it themselves.
//
// Policies are not safe for concurrent use; callers serialize access
// (sessiond holds the per-session lock, the arena runs one policy per
// goroutine).
type Policy interface {
	// Next suggests the next configuration to evaluate, encoded as
	// [c_1 ... c_N, x] in the policy's Domain.
	Next() ([]float64, error)
	// Observe records the measured cost of a point; a point outside the
	// Domain or a non-finite cost is rejected and changes nothing.
	Observe(p []float64, cost float64) error
	// Observations returns the number of recorded (point, cost) pairs.
	Observations() int
	// ExportState deep-copies the resumable state: the RNG position and
	// the observation history. Everything else a policy holds is a
	// function of those, so the policies registry restores any policy by
	// replaying the history into a fresh instance at that RNG position,
	// and the restored suggestion stream is bit-identical to the
	// exporter's.
	ExportState() *OptimizerState
}

var _ Policy = (*Optimizer)(nil)
