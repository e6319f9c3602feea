package core_test

import (
	"math"
	"testing"

	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/render"
	"github.com/mar-hbo/hbo/internal/scenario"
	"github.com/mar-hbo/hbo/internal/sim"
	"github.com/mar-hbo/hbo/internal/tasks"
)

func buildScenario(t *testing.T, spec scenario.Spec, seed uint64) *scenario.Built {
	t.Helper()
	built, err := spec.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	return built
}

func TestMeasureProducesSaneValues(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 1)
	m, err := built.Runtime.Measure(3000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Quality <= 0 || m.Quality > 1 {
		t.Fatalf("quality = %v", m.Quality)
	}
	if m.Epsilon < 0 || math.IsNaN(m.Epsilon) {
		t.Fatalf("epsilon = %v", m.Epsilon)
	}
	if len(m.PerTaskLatency) != 3 {
		t.Fatalf("per-task latencies: %d, want 3", len(m.PerTaskLatency))
	}
	// Reward/cost relationship.
	w := 2.5
	if got := m.Cost(w); math.Abs(got+m.Reward(w)) > 1e-12 {
		t.Fatalf("cost %v != -reward %v", got, -m.Reward(w))
	}
	if _, err := built.Runtime.Measure(0); err == nil {
		t.Fatal("zero-length measurement accepted")
	}
}

func TestApplyConfigurationRoundTrip(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 1)
	rt := built.Runtime
	a, err := rt.ApplyConfiguration([]float64{1, 0, 0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 {
		t.Fatalf("assignment has %d tasks", len(a))
	}
	for id, r := range a {
		if r != tasks.CPU {
			t.Errorf("task %s on %s, want CPU", id, r)
		}
		got, err := rt.Sys.Allocation(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Errorf("system reports %s for %s, want %s", got, id, r)
		}
	}
	if ratio := rt.Scene.TotalRatio(); math.Abs(ratio-0.5) > 0.03 {
		t.Fatalf("scene ratio %v after x=0.5", ratio)
	}
}

func TestConfigValidate(t *testing.T) {
	good := core.DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*core.Config){
		"negative weight": func(c *core.Config) { c.Weight = -1 },
		"bad rmin":        func(c *core.Config) { c.RMin = 1 },
		"zero iters":      func(c *core.Config) { c.Iterations = 0 },
		"zero period":     func(c *core.Config) { c.PeriodMS = 0 },
	} {
		c := core.DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunActivationConverges(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 7)
	cfg := core.DefaultConfig()
	res, err := core.RunActivation(built.Runtime, cfg, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != cfg.InitSamples+cfg.Iterations {
		t.Fatalf("%d iterations recorded, want %d", len(res.Iterations), cfg.InitSamples+cfg.Iterations)
	}
	// Best-cost trajectory is non-increasing.
	traj := res.BestCostTrajectory()
	for i := 1; i < len(traj); i++ {
		if traj[i] > traj[i-1]+1e-12 {
			t.Fatalf("best-cost trajectory increased at %d: %v -> %v", i, traj[i-1], traj[i])
		}
	}
	// The final enforced configuration matches the best iteration.
	if res.Cost != res.Iterations[res.BestIndex].Cost {
		t.Fatal("result cost does not echo best iteration")
	}
	if res.Ratio < cfg.RMin || res.Ratio > 1 {
		t.Fatalf("final ratio %v out of bounds", res.Ratio)
	}
	if len(res.Assignment) != 3 {
		t.Fatalf("final assignment covers %d tasks", len(res.Assignment))
	}
	// SC2-CF2 is the paper's least-contended scenario: the found reward
	// should be clearly positive and the best solution should keep most
	// object quality (paper: ratio 0.94, all tasks on NNAPI).
	if -res.Cost < 0.3 {
		t.Errorf("best reward %v too low for SC2-CF2", -res.Cost)
	}
	if res.Ratio < 0.5 {
		t.Errorf("SC2-CF2 should not need heavy decimation, got ratio %v", res.Ratio)
	}
	if res.Quality < 0.8 {
		t.Errorf("SC2-CF2 quality %v, want >= 0.8", res.Quality)
	}
}

func TestRunActivationBeatsStartingPoint(t *testing.T) {
	built := buildScenario(t, scenario.SC1CF1(), 3)
	rt := built.Runtime
	// Starting point: every task on its isolation-best resource, full
	// triangles — the natural app default.
	before, err := rt.Measure(4000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	res, err := core.RunActivation(rt, cfg, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	after, err := rt.Measure(4000)
	if err != nil {
		t.Fatal(err)
	}
	w := cfg.Weight
	if after.Reward(w) <= before.Reward(w) {
		t.Errorf("HBO did not improve reward: %.3f -> %.3f", before.Reward(w), after.Reward(w))
	}
	if res.Ratio > 0.98 {
		t.Errorf("SC1-CF1 should reduce triangles (paper: 0.72), got %v", res.Ratio)
	}
	t.Logf("SC1-CF1: reward %.3f -> %.3f, ratio %.2f, eps %.3f, Q %.3f, alloc %v",
		before.Reward(w), after.Reward(w), res.Ratio, res.Epsilon, res.Quality, res.Assignment)
}

func TestInputDistances(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 5)
	cfg := core.DefaultConfig()
	cfg.InitSamples = 2
	cfg.Iterations = 3
	res, err := core.RunActivation(built.Runtime, cfg, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	d := res.InputDistances()
	if len(d) != 4 {
		t.Fatalf("got %d distances, want 4", len(d))
	}
	for _, v := range d {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("bad distance %v", v)
		}
	}
}

func TestMonitorThresholds(t *testing.T) {
	m, err := core.NewMonitor(0.05, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ShouldActivate(0.5) {
		t.Fatal("monitor without reference must always activate")
	}
	m.SetReference(1.0)
	cases := []struct {
		b    float64
		want bool
	}{
		{1.0, false},
		{1.03, false}, // +3% < +5%
		{1.06, true},  // +6% >= +5%
		{0.95, false}, // -5% > -10%
		{0.89, true},  // -11% <= -10%
	}
	for _, c := range cases {
		if got := m.ShouldActivate(c.b); got != c.want {
			t.Errorf("ShouldActivate(%v) = %v, want %v", c.b, got, c.want)
		}
	}
	// Near-zero reference uses the absolute floor.
	m.SetReference(0.0)
	if m.ShouldActivate(0.004) {
		t.Error("tiny drift near zero reference should not trigger")
	}
	if !m.ShouldActivate(0.02) {
		t.Error("drift beyond floor-scaled threshold should trigger")
	}
	if _, err := core.NewMonitor(0, 0.1); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestLookupTable(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 9)
	tab := core.NewLookupTable()
	key := core.Key(built.Runtime)
	if _, ok := tab.Find(key); ok {
		t.Fatal("empty table found an entry")
	}
	point := []float64{0.2, 0.2, 0.6, 0.9}
	tab.Store(key, core.LookupEntry{Point: point})
	got, ok := tab.Find(key)
	if !ok {
		t.Fatal("stored entry not found")
	}
	point[0] = 99 // the table must have copied
	if got.Point[0] == 99 {
		t.Fatal("lookup table aliases caller's slice")
	}
	if tab.Len() != 1 {
		t.Fatalf("table len %d", tab.Len())
	}
	// A different environment (object removed) yields a different key.
	if err := built.Scene.Remove("cabin"); err != nil {
		t.Fatal(err)
	}
	if core.Key(built.Runtime) == key {
		t.Fatal("environment key did not change with scene")
	}
}

func TestActivationWithLODProvider(t *testing.T) {
	built := buildScenario(t, scenario.SC2CF2(), 21)
	dec := render.NewLocalDecimator(built.Library)
	built.Runtime.SetLODProvider(dec)
	cfg := core.DefaultConfig()
	cfg.InitSamples = 3
	cfg.Iterations = 4
	res, err := core.RunActivation(built.Runtime, cfg, sim.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	// Every object carries real decimated geometry matching its ratio.
	for _, o := range built.Scene.Objects() {
		if o.Geometry == nil {
			t.Fatalf("object %s has no geometry after optimized activation", o.ID())
		}
		if err := o.Geometry.Validate(); err != nil {
			t.Fatal(err)
		}
		if math.Abs(o.GeometryRatio-o.Ratio()) > 0.05 {
			t.Errorf("object %s geometry ratio %.2f vs target %.2f", o.ID(), o.GeometryRatio, o.Ratio())
		}
	}
	_ = res
}

func TestDeadlineMissRate(t *testing.T) {
	built := buildScenario(t, scenario.SC1CF1(), 27)
	// Default start (static-best, full triangles) saturates the SoC: a
	// large share of inferences must miss their 100 ms issue deadline.
	m, err := built.Runtime.Measure(4000)
	if err != nil {
		t.Fatal(err)
	}
	if m.DeadlineMissRate < 0.2 {
		t.Errorf("saturated start miss rate %.2f, want substantial", m.DeadlineMissRate)
	}
	// HBO's solution should all but eliminate misses.
	if _, err := core.RunActivation(built.Runtime, core.DefaultConfig(), sim.NewRNG(27)); err != nil {
		t.Fatal(err)
	}
	after, err := built.Runtime.Measure(4000)
	if err != nil {
		t.Fatal(err)
	}
	if after.DeadlineMissRate >= m.DeadlineMissRate/2 {
		t.Errorf("miss rate %.2f -> %.2f, want clear reduction", m.DeadlineMissRate, after.DeadlineMissRate)
	}
	if after.DeadlineMissRate < 0 || after.DeadlineMissRate > 1 {
		t.Errorf("miss rate %v out of [0,1]", after.DeadlineMissRate)
	}
}
