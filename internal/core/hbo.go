package core

import (
	"fmt"

	"github.com/mar-hbo/hbo/internal/alloc"
	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/sim"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// Config holds HBO's tunables with the values used in the paper's
// evaluation.
type Config struct {
	// Weight is w in Eq. 3 (the paper evaluates with 2.5).
	Weight float64
	// RMin is the minimum total triangle ratio (Constraint 10).
	RMin float64
	// InitSamples is the number of random configurations that seed the BO
	// database at each activation (the paper uses 5).
	InitSamples int
	// Iterations is the number of BO-guided iterations after seeding (the
	// paper uses 15).
	Iterations int
	// PeriodMS is the control period over which each candidate
	// configuration is measured.
	PeriodMS float64
	// SettleMS is simulated time allowed after enforcing a configuration
	// before its measurement window opens, so in-flight inferences from the
	// previous configuration do not pollute the cost sample.
	SettleMS float64
	// IncreaseThreshold and DecreaseThreshold are the activation policy's
	// reward-drift bounds (the paper determines 5% and 10% empirically).
	IncreaseThreshold float64
	DecreaseThreshold float64
	// MonitorIntervalMS is the reward sampling interval of the activation
	// monitor (the paper samples every 2 seconds).
	MonitorIntervalMS float64
	// CooldownMS is the hold-off after an activation during which the
	// event-based policy will not re-trigger, bounding churn when the
	// enforced solution's reward is noisy under heavy contention.
	CooldownMS float64
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Weight:            2.5,
		RMin:              0.1,
		InitSamples:       5,
		Iterations:        15,
		PeriodMS:          2000,
		SettleMS:          500,
		IncreaseThreshold: 0.05,
		DecreaseThreshold: 0.10,
		MonitorIntervalMS: 2000,
		CooldownMS:        30000,
	}
}

// Validate rejects configurations HBO cannot run with.
func (c Config) Validate() error {
	if c.Weight < 0 {
		return fmt.Errorf("core: negative weight %v", c.Weight)
	}
	if c.RMin < 0 || c.RMin >= 1 {
		return fmt.Errorf("core: RMin %v out of [0,1)", c.RMin)
	}
	if c.InitSamples < 1 || c.Iterations < 1 {
		return fmt.Errorf("core: need at least one init sample and one iteration")
	}
	if c.PeriodMS <= 0 || c.MonitorIntervalMS <= 0 {
		return fmt.Errorf("core: non-positive period")
	}
	if c.SettleMS < 0 {
		return fmt.Errorf("core: negative settle time")
	}
	if c.CooldownMS < 0 {
		return fmt.Errorf("core: negative cooldown")
	}
	return nil
}

// Iteration records one HBO iteration for analysis (Figs. 4c, 6, 7).
type Iteration struct {
	// Point is the BO input [c_1, c_2, c_3, x].
	Point []float64
	// Cost is the measured φ = −B.
	Cost float64
	// Quality and Epsilon are the window's Q_t and ε_t.
	Quality float64
	Epsilon float64
	// Assignment is the per-task allocation the heuristic realized.
	Assignment alloc.Assignment
	// Degraded marks iterations measured while the runtime operated on
	// fallback output (edge link down).
	Degraded bool
}

// Result is the outcome of one HBO activation.
type Result struct {
	// Iterations holds every explored configuration in order (init samples
	// first).
	Iterations []Iteration
	// BestIndex is the index of the lowest-cost iteration.
	BestIndex int
	// Assignment and Ratio are the final enforced configuration.
	Assignment alloc.Assignment
	// Point is the winning BO input vector.
	Point []float64
	Ratio float64
	// Cost, Quality, Epsilon echo the winning iteration's measurements.
	Cost    float64
	Quality float64
	Epsilon float64
	// RemoteProposals and FallbackProposals count post-init iterations whose
	// configuration came from the remote BO backend versus the local
	// optimizer after a remote failure. Both zero when no backend is set.
	RemoteProposals   int
	FallbackProposals int
}

// BestCostTrajectory returns the running minimum cost after each iteration
// (the series plotted in Figs. 4c and 7).
func (r *Result) BestCostTrajectory() []float64 {
	out := make([]float64, len(r.Iterations))
	best := 0.0
	for i, it := range r.Iterations {
		if i == 0 || it.Cost < best {
			best = it.Cost
		}
		out[i] = best
	}
	return out
}

// InputDistances returns the Euclidean distance between consecutive BO
// inputs (Fig. 6a's exploration/exploitation trace).
func (r *Result) InputDistances() []float64 {
	if len(r.Iterations) < 2 {
		return nil
	}
	out := make([]float64, len(r.Iterations)-1)
	for i := 1; i < len(r.Iterations); i++ {
		out[i-1] = bo.Distance(r.Iterations[i].Point, r.Iterations[i-1].Point)
	}
	return out
}

// RunActivation executes one full HBO activation with the paper's GP-EI
// optimizer (see RunPolicy).
func RunActivation(rt *Runtime, cfg Config, rng *sim.RNG) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	boCfg := bo.DefaultConfig()
	boCfg.InitSamples = cfg.InitSamples
	opt, err := bo.NewOptimizer(bo.Domain{N: tasks.NumResources, RMin: cfg.RMin}, boCfg, rng)
	if err != nil {
		return nil, err
	}
	opt.SetObserver(rt.reg)
	return RunPolicy(rt, cfg, opt)
}

// RunPolicy executes one full HBO activation (Algorithm 1 repeated for
// InitSamples + Iterations periods) with pol proposing: propose a
// configuration, enforce it through the heuristics, measure a control
// period, feed the cost back into pol — then enforce the best configuration
// found. pol must be fresh, over bo.Domain{N: tasks.NumResources, RMin:
// cfg.RMin}, with cfg.InitSamples warm-up points; the runtime's remote BO
// backend, when set, still proposes the post-init iterations.
func RunPolicy(rt *Runtime, cfg Config, pol bo.Policy) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dom := bo.Domain{N: tasks.NumResources, RMin: cfg.RMin}
	rt.activations++
	rt.metActivations.Inc()
	rt.emit(obs.Event{TimeMS: rt.Sys.Now(), Kind: "core.activation.start"})
	res := &Result{}
	total := cfg.InitSamples + cfg.Iterations
	// points and costs mirror pol's database for the remote backend; pol
	// observes every sample regardless of who proposed it, so it can take
	// over mid-activation at any time.
	var points [][]float64
	var costs []float64
	for i := 0; i < total; i++ {
		point := rt.proposeRemote(dom, cfg, i, points, costs, res)
		if point == nil {
			var err error
			point, err = pol.Next()
			if err != nil {
				return nil, fmt.Errorf("core: BO suggestion %d: %w", i, err)
			}
		}
		assignment, err := rt.ApplyConfiguration(point[:tasks.NumResources], point[tasks.NumResources])
		if err != nil {
			return nil, fmt.Errorf("core: applying configuration %d: %w", i, err)
		}
		rt.Sys.RunFor(cfg.SettleMS)
		m, err := rt.Measure(cfg.PeriodMS)
		if err != nil {
			return nil, err
		}
		cost := m.Cost(cfg.Weight)
		if err := pol.Observe(point, cost); err != nil {
			return nil, err
		}
		points = append(points, point)
		costs = append(costs, cost)
		res.Iterations = append(res.Iterations, Iteration{
			Point:      point,
			Cost:       cost,
			Quality:    m.Quality,
			Epsilon:    m.Epsilon,
			Assignment: assignment,
			Degraded:   m.Degraded,
		})
		if cost < res.Iterations[res.BestIndex].Cost {
			res.BestIndex = i
		}
	}
	best := res.Iterations[res.BestIndex]
	assignment, err := rt.ApplyConfiguration(best.Point[:tasks.NumResources], best.Point[tasks.NumResources])
	if err != nil {
		return nil, fmt.Errorf("core: enforcing best configuration: %w", err)
	}
	// Let in-flight inferences from the last explored configuration drain so
	// the caller's next measurement sees the enforced solution, not the
	// exploration tail.
	rt.Sys.RunFor(cfg.SettleMS)
	res.Assignment = assignment
	res.Point = best.Point
	res.Ratio = best.Point[tasks.NumResources]
	res.Cost = best.Cost
	res.Quality = best.Quality
	res.Epsilon = best.Epsilon
	rt.emit(obs.Event{TimeMS: rt.Sys.Now(), Kind: "core.activation.end", Value: res.Cost})
	return res, nil
}

// proposeRemote asks the runtime's remote BO backend for iteration i's
// configuration. It returns nil — deferring to the local optimizer — when no
// backend is set, during the on-device init sampling, when the backend's
// circuit is open, or when the proposal fails or is out of domain; remote
// faults degrade the activation to local proposals instead of aborting it.
func (rt *Runtime) proposeRemote(dom bo.Domain, cfg Config, i int, points [][]float64, costs []float64, res *Result) []float64 {
	if rt.boBackend == nil || i < cfg.InitSamples {
		return nil
	}
	if av, ok := rt.boBackend.(interface{ Available() bool }); ok && !av.Available() {
		res.FallbackProposals++
		return nil
	}
	p, err := rt.boBackend.BONextPoint(rt.activations, points, costs)
	if err != nil || len(p) != dom.Dim() || !dom.Contains(p) {
		res.FallbackProposals++
		return nil
	}
	res.RemoteProposals++
	return p
}
