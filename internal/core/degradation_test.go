package core_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/render"
	"github.com/mar-hbo/hbo/internal/scenario"
	"github.com/mar-hbo/hbo/internal/sim"
)

// flakyLOD wraps a real provider with scriptable failure and availability —
// a stand-in for the edge client under link faults.
type flakyLOD struct {
	inner     render.LODProvider
	fail      bool
	available bool
	calls     int
}

func (f *flakyLOD) Decimate(object string, ratio float64) (*mesh.Mesh, error) {
	f.calls++
	if f.fail {
		return nil, errors.New("flaky: injected provider failure")
	}
	return f.inner.Decimate(object, ratio)
}

func (f *flakyLOD) Available() bool { return f.available }

// shiftRatio applies a configuration whose triangle ratio differs enough
// from the current one that ApplyLOD must refetch geometry.
func shiftRatio(t *testing.T, rt *core.Runtime, x float64) {
	t.Helper()
	if _, err := rt.ApplyConfiguration([]float64{0.4, 0.3, 0.3}, x); err != nil {
		t.Fatal(err)
	}
}

func TestLODFallbackOnPrimaryFailure(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 3)
	rt := built.Runtime
	primary := &flakyLOD{inner: render.NewLocalDecimator(built.Library), fail: true, available: true}
	rt.SetLODProvider(primary)
	rt.SetLocalFallback(render.NewLocalDecimator(built.Library))

	shiftRatio(t, rt, 0.5)
	if !rt.Degraded() {
		t.Fatal("failing primary did not mark the runtime degraded")
	}
	if rt.DegradedEvents() != 1 {
		t.Fatalf("degraded events = %d, want 1", rt.DegradedEvents())
	}
	m, err := rt.Measure(500)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded {
		t.Fatal("measurement in degraded mode not flagged")
	}
	// Staying degraded across windows is one event, not one per window.
	shiftRatio(t, rt, 0.8)
	if rt.DegradedEvents() != 1 {
		t.Fatalf("degraded events after second failing window = %d, want 1", rt.DegradedEvents())
	}

	// Primary recovers: the next refetch clears degraded mode transparently.
	primary.fail = false
	shiftRatio(t, rt, 0.4)
	if rt.Degraded() {
		t.Fatal("runtime still degraded after primary recovery")
	}
	m, err = rt.Measure(500)
	if err != nil {
		t.Fatal(err)
	}
	if m.Degraded {
		t.Fatal("post-recovery measurement still flagged degraded")
	}
}

func TestLODUnavailablePrimarySkipped(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 3)
	rt := built.Runtime
	// Unavailable AND failing: with the availability check honored, the
	// primary must not even be called.
	primary := &flakyLOD{inner: render.NewLocalDecimator(built.Library), fail: true, available: false}
	rt.SetLODProvider(primary)
	rt.SetLocalFallback(render.NewLocalDecimator(built.Library))
	shiftRatio(t, rt, 0.5)
	if primary.calls != 0 {
		t.Fatalf("unavailable primary was called %d times", primary.calls)
	}
	if !rt.Degraded() {
		t.Fatal("runtime not degraded while primary unavailable")
	}
}

func TestLODNoFallbackSurfacesError(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 3)
	rt := built.Runtime
	rt.SetLODProvider(&flakyLOD{inner: render.NewLocalDecimator(built.Library), fail: true, available: true})
	if _, err := rt.ApplyConfiguration([]float64{0.4, 0.3, 0.3}, 0.5); err == nil {
		t.Fatal("failing primary without fallback did not error")
	}
}

// fakeBO is a scriptable remote BO backend that records the activation
// number of every call.
type fakeBO struct {
	point       []float64
	err         error
	available   bool
	calls       int
	activations []int
}

func (f *fakeBO) BONextPoint(activation int, points [][]float64, costs []float64) ([]float64, error) {
	f.calls++
	f.activations = append(f.activations, activation)
	if f.err != nil {
		return nil, f.err
	}
	return f.point, nil
}

func (f *fakeBO) Available() bool { return f.available }

func fastConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.InitSamples = 2
	cfg.Iterations = 3
	cfg.PeriodMS = 500
	cfg.SettleMS = 100
	return cfg
}

func TestRemoteBOProposalsUsed(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 5)
	remote := &fakeBO{point: []float64{0.5, 0.3, 0.2, 0.8}, available: true}
	built.Runtime.SetBOBackend(remote)
	res, err := core.RunActivation(built.Runtime, fastConfig(), sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteProposals != 3 || res.FallbackProposals != 0 {
		t.Fatalf("proposals = %d remote / %d fallback, want 3/0", res.RemoteProposals, res.FallbackProposals)
	}
	if remote.calls != 3 {
		t.Fatalf("backend called %d times, want once per post-init iteration", remote.calls)
	}
	// The remote point must actually be the enforced configuration for
	// post-init iterations.
	for i := 2; i < len(res.Iterations); i++ {
		for d, v := range remote.point {
			if res.Iterations[i].Point[d] != v {
				t.Fatalf("iteration %d point %v, want remote %v", i, res.Iterations[i].Point, remote.point)
			}
		}
	}
}

// TestRemoteBOActivationNumbers pins the activation boundary the backend
// scopes its server session to: every call within one RunActivation carries
// the same number, and the next RunActivation on the same runtime a new one.
func TestRemoteBOActivationNumbers(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 5)
	remote := &fakeBO{point: []float64{0.5, 0.3, 0.2, 0.8}, available: true}
	built.Runtime.SetBOBackend(remote)
	for k := 0; k < 2; k++ {
		if _, err := core.RunActivation(built.Runtime, fastConfig(), sim.NewRNG(5)); err != nil {
			t.Fatal(err)
		}
	}
	// fastConfig has 3 post-init iterations per activation.
	if len(remote.activations) != 6 {
		t.Fatalf("backend saw %d calls, want 6: %v", len(remote.activations), remote.activations)
	}
	first, second := remote.activations[0], remote.activations[3]
	if first == second {
		t.Fatalf("two activations passed the same number %d: %v", first, remote.activations)
	}
	for i, a := range remote.activations {
		want := first
		if i >= 3 {
			want = second
		}
		if a != want {
			t.Fatalf("call %d carried activation %d, want %d: %v", i, a, want, remote.activations)
		}
	}
}

func TestRemoteBOFallsBackLocally(t *testing.T) {
	for name, remote := range map[string]*fakeBO{
		"erroring":      {err: fmt.Errorf("link down"), available: true},
		"unavailable":   {point: []float64{0.5, 0.3, 0.2, 0.8}, available: false},
		"out-of-domain": {point: []float64{9, 9, 9, 9}, available: true},
		"wrong-dim":     {point: []float64{0.5, 0.5}, available: true},
	} {
		built := buildScenario(t, scenario.SC2CF2(), 5)
		built.Runtime.SetBOBackend(remote)
		res, err := core.RunActivation(built.Runtime, fastConfig(), sim.NewRNG(5))
		if err != nil {
			t.Fatalf("%s backend aborted the activation: %v", name, err)
		}
		if res.RemoteProposals != 0 || res.FallbackProposals != 3 {
			t.Fatalf("%s: proposals = %d remote / %d fallback, want 0/3",
				name, res.RemoteProposals, res.FallbackProposals)
		}
		if name == "unavailable" && remote.calls != 0 {
			t.Fatalf("unavailable backend was still called %d times", remote.calls)
		}
	}
}

func TestActivationMatchesNoBackendRun(t *testing.T) {
	// A backend that always fails must leave the activation byte-identical
	// to a run with no backend at all: the local optimizer's draw sequence
	// is not perturbed by remote attempts.
	base := buildScenario(t, scenario.SC2CF2(), 7)
	resBase, err := core.RunActivation(base.Runtime, fastConfig(), sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	faulty := buildScenario(t, scenario.SC2CF2(), 7)
	faulty.Runtime.SetBOBackend(&fakeBO{err: fmt.Errorf("down"), available: true})
	resFaulty, err := core.RunActivation(faulty.Runtime, fastConfig(), sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(resBase.Iterations) != len(resFaulty.Iterations) {
		t.Fatal("iteration counts differ")
	}
	for i := range resBase.Iterations {
		for d := range resBase.Iterations[i].Point {
			if resBase.Iterations[i].Point[d] != resFaulty.Iterations[i].Point[d] {
				t.Fatalf("iteration %d diverged: %v vs %v",
					i, resBase.Iterations[i].Point, resFaulty.Iterations[i].Point)
			}
		}
	}
}

func TestSessionCountsDegradedWindows(t *testing.T) {
	spec := scenario.SC2CF2()
	built := buildScenario(t, spec, 11)
	rt := built.Runtime
	primary := &flakyLOD{inner: render.NewLocalDecimator(built.Library), fail: true, available: true}
	rt.SetLODProvider(primary)
	rt.SetLocalFallback(render.NewLocalDecimator(built.Library))
	s, err := core.NewSession(rt, sessionConfig(core.EventBased), sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(30000); err != nil {
		t.Fatalf("degraded session errored: %v", err)
	}
	if s.DegradedWindows() == 0 {
		t.Fatal("no degraded windows recorded under a failing primary")
	}
	flagged := 0
	for _, smp := range s.Samples() {
		if smp.Degraded {
			flagged++
		}
	}
	if flagged != s.DegradedWindows() {
		t.Fatalf("counter %d != flagged samples %d", s.DegradedWindows(), flagged)
	}
}
