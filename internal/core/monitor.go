package core

import (
	"fmt"
	"math"
)

// Monitor implements the event-based activation policy of §IV-E: it holds
// the reference reward recorded after the last activation and reports when
// the observed reward drifts past the tunable increase/decrease thresholds.
type Monitor struct {
	increase float64
	decrease float64
	ref      float64
	hasRef   bool
}

// NewMonitor builds a monitor with the given drift thresholds (the paper
// uses +5% / −10%).
func NewMonitor(increase, decrease float64) (*Monitor, error) {
	if increase <= 0 || decrease <= 0 {
		return nil, fmt.Errorf("core: monitor thresholds must be positive, got %v/%v", increase, decrease)
	}
	return &Monitor{increase: increase, decrease: decrease}, nil
}

// SetReference records the reward obtained by the last activation; future
// drift is measured against it.
func (m *Monitor) SetReference(b float64) {
	m.ref = b
	m.hasRef = true
}

// HasReference reports whether an activation has ever set a reference.
func (m *Monitor) HasReference() bool { return m.hasRef }

// Reference returns the current reference reward.
func (m *Monitor) Reference() float64 { return m.ref }

// ShouldActivate reports whether the observed reward b has drifted enough
// from the reference to warrant a new activation. With no reference yet it
// always triggers (the paper's "first object placement" activation).
// Because B = Q − w·ε can be near zero or negative, drift is normalized by
// max(|reference|, 0.1).
func (m *Monitor) ShouldActivate(b float64) bool {
	if !m.hasRef {
		return true
	}
	scale := math.Abs(m.ref)
	if scale < 0.1 {
		scale = 0.1
	}
	drift := (b - m.ref) / scale
	return drift >= m.increase || drift <= -m.decrease
}

// EnvironmentKey buckets the scene/taskset conditions the §VI lookup-table
// extension matches on: maximum triangle count, average distance, and task
// configuration.
type EnvironmentKey struct {
	Taskset string
	// TriBucket is log2 of the total maximum triangle count.
	TriBucket int
	// DistBucket is the average user-object distance in 0.5 m buckets.
	DistBucket int
	// Objects is the on-screen object count.
	Objects int
}

// String renders the key compactly for event details and diagnostics.
func (k EnvironmentKey) String() string {
	return fmt.Sprintf("%s/tri%d/dist%d/obj%d", k.Taskset, k.TriBucket, k.DistBucket, k.Objects)
}

// LookupEntry is one remembered solution.
type LookupEntry struct {
	Point []float64
}

// LookupTable is the §VI future-work extension: remember the solution found
// for an environment and reuse it when conditions recur, skipping a full
// (and user-visible) Bayesian exploration.
type LookupTable struct {
	entries map[EnvironmentKey]LookupEntry
}

// NewLookupTable returns an empty table.
func NewLookupTable() *LookupTable {
	return &LookupTable{entries: make(map[EnvironmentKey]LookupEntry)}
}

// Key derives the environment key for a runtime's current conditions.
func Key(rt *Runtime) EnvironmentKey {
	k := EnvironmentKey{Taskset: rt.Taskset.Name, Objects: rt.Scene.Len()}
	if t := rt.Scene.TotalMaxTriangles(); t > 0 {
		k.TriBucket = int(math.Log2(float64(t)))
	}
	if rt.Scene.Len() > 0 {
		sum := 0.0
		for _, o := range rt.Scene.Objects() {
			sum += o.Distance
		}
		k.DistBucket = int(sum / float64(rt.Scene.Len()) / 0.5)
	}
	return k
}

// Store remembers the solution for the environment.
func (t *LookupTable) Store(k EnvironmentKey, e LookupEntry) {
	cp := e
	cp.Point = append([]float64(nil), e.Point...)
	t.entries[k] = cp
}

// Find returns the remembered solution for the environment, if any.
func (t *LookupTable) Find(k EnvironmentKey) (LookupEntry, bool) {
	e, ok := t.entries[k]
	return e, ok
}

// Len returns the number of remembered environments.
func (t *LookupTable) Len() int { return len(t.entries) }

// Entries returns a copy of the table's contents for persistence.
func (t *LookupTable) Entries() map[EnvironmentKey]LookupEntry {
	out := make(map[EnvironmentKey]LookupEntry, len(t.entries))
	for k, e := range t.entries {
		cp := e
		cp.Point = append([]float64(nil), e.Point...)
		out[k] = cp
	}
	return out
}
