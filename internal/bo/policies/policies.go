// Package policies hosts the optimizer arena's rival entrants for the joint
// (c_t, x_t) search: a LinUCB contextual bandit over a discretized
// allocation simplex × quality grid, Gaussian Thompson sampling over the
// same arm set, a separable CMA-ES, and pure random
// search. Each implements bo.Policy under the package's determinism
// contract (all randomness via sim.RNG, no wall clock, bit-identical
// replay from equal seeds); the GP-EI bo.Optimizer registers here too so
// every serving and tournament path selects policies by name through one
// registry. Every entrant embeds bo.History, which owns the observation
// database, its checks and its snapshot; every entrant's state is a
// function of its RNG position and that history, so every entrant
// snapshots the same way (ExportState) and restores through one Restore.
package policies

import (
	"fmt"
	"slices"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/sim"
)

// Canonical policy names. The empty string is an alias for NameGPEI
// everywhere a name is accepted: the GP-EI optimizer is the paper's default
// and pre-arena callers never named it.
const (
	NameGPEI     = "gp-ei"
	NameLinUCB   = "linucb"
	NameCMAES    = "cmaes"
	NameRandom   = "random"
	NameThompson = "thompson"
)

// Names returns the registered policy names, sorted.
func Names() []string {
	return []string{NameCMAES, NameGPEI, NameLinUCB, NameRandom, NameThompson}
}

// Valid reports whether name selects a registered policy. The empty string
// is valid (it means the GP-EI default).
func Valid(name string) bool {
	return name == "" || slices.Contains(Names(), name)
}

// Canonical maps a policy name to its canonical serving form: the GP-EI
// default collapses to the empty string so pre-arena sessions, snapshots,
// and wire frames compare equal to ones that name it explicitly.
func Canonical(name string) string {
	if name == NameGPEI {
		return ""
	}
	return name
}

// New constructs the named policy over dom. cfg supplies the shared search
// parameters every entrant interprets for itself (InitSamples bounds the
// warm-up phase; GP-specific fields are ignored by non-GP entrants). All
// randomness flows from rng.
func New(name string, dom bo.Domain, cfg bo.Config, rng *sim.RNG) (bo.Policy, error) {
	switch Canonical(name) {
	case "":
		return bo.NewOptimizer(dom, cfg, rng)
	case NameLinUCB:
		return NewLinUCB(dom, cfg, rng)
	case NameCMAES:
		return NewCMAES(dom, cfg, rng)
	case NameRandom:
		return NewRandom(dom, cfg, rng)
	case NameThompson:
		return NewThompson(dom, cfg, rng)
	}
	return nil, fmt.Errorf("policies: unknown policy %q (have %v)", name, Names())
}

// Restore rebuilds the named policy from an exported state: a fresh
// instance at the exported RNG position, fed the exported history through
// Observe (whose bo.History checks validate it as the live path would). Every entrant's state
// is a function of those two, so the restored suggestion stream continues
// bit-identically.
func Restore(name string, dom bo.Domain, cfg bo.Config, st *bo.OptimizerState) (bo.Policy, error) {
	if st == nil {
		return nil, fmt.Errorf("policies: nil %q state", name)
	}
	p, err := New(name, dom, cfg, sim.NewRNG(st.RNGState))
	if err != nil {
		return nil, err
	}
	if len(st.X) != len(st.Y) {
		return nil, fmt.Errorf("policies: state has %d points but %d costs", len(st.X), len(st.Y))
	}
	for i, x := range st.X {
		if err := p.Observe(x, st.Y[i]); err != nil {
			return nil, fmt.Errorf("policies: replaying observation %d: %w", i, err)
		}
	}
	return p, nil
}
