package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/mar-hbo/hbo/internal/alloc"
	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/scenario"
	"github.com/mar-hbo/hbo/internal/sim"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// Extensions returns the ablation/extension experiments that go beyond the
// paper's published artifacts: design choices the paper asserts but does not
// plot, and metrics it defers to future work.
func Extensions() []Runner {
	return []Runner{
		{ID: "Acquisition", Description: "EI vs PI vs LCB acquisition functions (the paper's §IV-C claim)",
			Run:     func(seed uint64) (fmt.Stringer, error) { return RunAcquisitionStudy(seed) },
			RunJobs: func(seed uint64, jobs int) (fmt.Stringer, error) { return RunAcquisitionStudyJobs(seed, jobs) }},
		{ID: "Energy", Description: "average platform power and frame rate per controller (eAR-lineage extension)",
			Run: func(seed uint64) (fmt.Stringer, error) { return RunEnergyStudy(seed) }},
		{ID: "TD", Description: "sensitivity-weighted vs uniform triangle distribution (Algorithm 1 line 23 ablation)",
			Run: func(seed uint64) (fmt.Stringer, error) { return RunTDStudy(seed) }},
		{ID: "Thermal", Description: "die temperature and throttling over 5 minutes, HBO config vs AllN (opt-in thermal model)",
			Run: func(seed uint64) (fmt.Stringer, error) { return RunThermalStudy(seed) }},
		{ID: "CrossDevice", Description: "HBO on SC1-CF1 for both calibrated devices (the paper's §V-A similarity remark)",
			Run:     func(seed uint64) (fmt.Stringer, error) { return RunCrossDevice(seed) },
			RunJobs: func(seed uint64, jobs int) (fmt.Stringer, error) { return RunCrossDeviceJobs(seed, jobs) }},
		{ID: "DynamicEnv", Description: "activation churn under user mobility, with and without the lookup table (§VI)",
			Run: func(seed uint64) (fmt.Stringer, error) { return RunDynamicEnv(seed) }},
		{ID: "Optimality", Description: "exhaustive oracle vs HBO on the tractable SC2-CF2 instance (the \"near-optimal\" claim)",
			Run:     func(seed uint64) (fmt.Stringer, error) { return RunOptimalityStudy(seed) },
			RunJobs: func(seed uint64, jobs int) (fmt.Stringer, error) { return RunOptimalityStudyJobs(seed, jobs) }},
		{ID: "QualityFit", Description: "per-object Eq. 1 training fidelity against the geometry-derived ground truth",
			Run: func(seed uint64) (fmt.Stringer, error) { return RunQualityFit(seed) }},
		{ID: "MultiApp", Description: "foreground MAR app + background AI service alternating optimization on one SoC",
			Run: func(seed uint64) (fmt.Stringer, error) { return RunMultiApp(seed) }},
		{ID: "Heuristic", Description: "Algorithm 1's priority-queue assignment vs random assignments honoring the same counts",
			Run: func(seed uint64) (fmt.Stringer, error) { return RunHeuristicStudy(seed) }},
		{ID: "MultiUser", Description: "shared-edge contention: aggregate B_t and Jain fairness vs user count, independent HBO vs look-ahead scheduler",
			Run:     func(seed uint64) (fmt.Stringer, error) { return RunMultiUserStudy(seed) },
			RunJobs: func(seed uint64, jobs int) (fmt.Stringer, error) { return RunMultiUserStudyJobs(seed, jobs) }},
	}
}

// AllWithExtensions returns the paper artifacts followed by the extensions.
func AllWithExtensions() []Runner {
	return append(All(), Extensions()...)
}

// AcquisitionOutcome is one acquisition function's aggregate performance.
type AcquisitionOutcome struct {
	Name string
	// FinalCosts is the best cost reached in each trial.
	FinalCosts []float64
	// MeanFinal is their mean.
	MeanFinal float64
	// MeanConvergedAt is the mean 1-based iteration where the final best
	// cost was first reached.
	MeanConvergedAt float64
}

// AcquisitionStudyResult compares acquisition functions on SC1-CF1, backing
// the paper's §IV-C argument for Expected Improvement over Probability of
// Improvement ("too conservative") and Lower Confidence Bound ("requires
// tuning a dedicated parameter").
type AcquisitionStudyResult struct {
	Trials   int
	Outcomes []AcquisitionOutcome
}

var _ fmt.Stringer = (*AcquisitionStudyResult)(nil)

// RunAcquisitionStudy runs HBO activations under each acquisition function
// across several seeds.
func RunAcquisitionStudy(seed uint64) (*AcquisitionStudyResult, error) {
	return RunAcquisitionStudyJobs(seed, 1)
}

// RunAcquisitionStudyJobs is RunAcquisitionStudy with the independent
// (acquisition, trial) activations spread over up to jobs workers; each
// trial owns a system and RNG derived from its own trial seed, so the
// report is byte-identical for every jobs value.
func RunAcquisitionStudyJobs(seed uint64, jobs int) (*AcquisitionStudyResult, error) {
	const trials = 3
	acqs := []bo.Acquisition{bo.EI{}, bo.PI{Xi: 0.01}, bo.LCB{Beta: 2}}
	type trialOut struct {
		final       float64
		convergedAt float64
	}
	outs := make([]trialOut, len(acqs)*trials)
	errs := make([]error, len(acqs)*trials)
	forEach(jobs, len(outs), func(i int) {
		acq := acqs[i/trials]
		trial := i % trials
		trialSeed := seed + uint64(trial)*7919
		built, err := scenario.SC1CF1().Build(trialSeed)
		if err != nil {
			errs[i] = err
			return
		}
		act, err := runActivationWithAcquisition(built.Runtime, acq, trialSeed)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: %s trial %d: %w", acq.Name(), trial, err)
			return
		}
		traj := act.BestCostTrajectory()
		outs[i].final = traj[len(traj)-1]
		for j, v := range traj {
			// Identity search: the final value IS an element of traj, so
			// bit comparison is exact, not approximate.
			if math.Float64bits(v) == math.Float64bits(outs[i].final) {
				outs[i].convergedAt = float64(j + 1)
				break
			}
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	res := &AcquisitionStudyResult{Trials: trials}
	for ai, acq := range acqs {
		out := AcquisitionOutcome{Name: acq.Name()}
		var convSum float64
		for trial := 0; trial < trials; trial++ {
			o := outs[ai*trials+trial]
			out.FinalCosts = append(out.FinalCosts, o.final)
			convSum += o.convergedAt
		}
		for _, c := range out.FinalCosts {
			out.MeanFinal += c
		}
		out.MeanFinal /= trials
		out.MeanConvergedAt = convSum / trials
		res.Outcomes = append(res.Outcomes, out)
	}
	return res, nil
}

// runActivationWithAcquisition runs core.RunPolicy with the paper's
// optimizer but a swapped acquisition function — kept here so the core
// package stays exactly the paper's algorithm.
func runActivationWithAcquisition(rt *core.Runtime, acq bo.Acquisition, seed uint64) (*core.Result, error) {
	cfg := core.DefaultConfig()
	boCfg := bo.DefaultConfig()
	boCfg.InitSamples = cfg.InitSamples
	boCfg.Acquisition = acq
	opt, err := bo.NewOptimizer(bo.Domain{N: tasks.NumResources, RMin: cfg.RMin}, boCfg, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return core.RunPolicy(rt, cfg, opt)
}

// String renders the acquisition comparison.
func (r *AcquisitionStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Acquisition-function ablation on SC1-CF1 (%d trials each)\n", r.Trials)
	rows := [][]string{{"Acquisition", "Mean Final Cost", "Mean Converged@", "Per-trial finals"}}
	for _, o := range r.Outcomes {
		finals := make([]string, len(o.FinalCosts))
		for i, c := range o.FinalCosts {
			finals[i] = fmt.Sprintf("%.2f", c)
		}
		rows = append(rows, []string{
			o.Name,
			fmt.Sprintf("%.3f", o.MeanFinal),
			fmt.Sprintf("%.1f", o.MeanConvergedAt),
			strings.Join(finals, " "),
		})
	}
	b.WriteString(table(rows))
	return b.String()
}

// EnergyRow is one controller's power/frame-rate outcome.
type EnergyRow struct {
	Name          string
	Ratio         float64
	Epsilon       float64
	Quality       float64
	AveragePowerW float64
	FPS           float64
}

// EnergyStudyResult extends the Fig. 5 comparison with platform power and
// achieved frame rate — the energy dimension of HBO's eAR lineage and the
// screen metric the paper defers (§III-A).
type EnergyStudyResult struct {
	Rows []EnergyRow
}

var _ fmt.Stringer = (*EnergyStudyResult)(nil)

// RunEnergyStudy measures HBO's solution, the static-best allocation at full
// quality, and AllN on SC1-CF1.
func RunEnergyStudy(seed uint64) (*EnergyStudyResult, error) {
	spec := scenario.SC1CF1()
	res := &EnergyStudyResult{}

	// HBO.
	built, err := spec.Build(seed)
	if err != nil {
		return nil, err
	}
	act, err := core.RunActivation(built.Runtime, core.DefaultConfig(), sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	m, err := built.Runtime.Measure(5000)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, EnergyRow{
		Name: "HBO", Ratio: act.Ratio, Epsilon: m.Epsilon, Quality: m.Quality,
		AveragePowerW: m.AveragePowerW, FPS: m.FPS,
	})

	// Static best at full quality, and AllN.
	for _, mode := range []string{"Static", "AllN"} {
		built, err := spec.Build(seed)
		if err != nil {
			return nil, err
		}
		rt := built.Runtime
		a := make(alloc.Assignment, len(rt.Taskset.Tasks))
		for _, task := range rt.Taskset.Tasks {
			switch mode {
			case "Static":
				a[task.ID()] = rt.Profile.Best[task.ID()]
			case "AllN":
				a[task.ID()] = tasks.NNAPI
			}
		}
		if err := rt.ApplyAllocation(a); err != nil {
			return nil, err
		}
		rt.SyncRenderLoad()
		rt.Sys.RunFor(1000)
		m, err := rt.Measure(5000)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, EnergyRow{
			Name: mode, Ratio: 1, Epsilon: m.Epsilon, Quality: m.Quality,
			AveragePowerW: m.AveragePowerW, FPS: m.FPS,
		})
	}
	return res, nil
}

// Row finds an energy row by controller name.
func (r *EnergyStudyResult) Row(name string) (EnergyRow, error) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, nil
		}
	}
	return EnergyRow{}, fmt.Errorf("experiments: no energy row %s", name)
}

// String renders the energy comparison.
func (r *EnergyStudyResult) String() string {
	var b strings.Builder
	b.WriteString("Energy/frame-rate extension on SC1-CF1\n")
	rows := [][]string{{"Controller", "Ratio", "Epsilon", "Quality", "Avg Power (W)", "FPS"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%.2f", row.Ratio),
			fmt.Sprintf("%.3f", row.Epsilon),
			fmt.Sprintf("%.3f", row.Quality),
			fmt.Sprintf("%.2f", row.AveragePowerW),
			fmt.Sprintf("%.0f", row.FPS),
		})
	}
	b.WriteString(table(rows))
	return b.String()
}

// TDRow compares the two distribution policies at one total ratio.
type TDRow struct {
	TotalRatio     float64
	QualitySens    float64
	QualityUniform float64
}

// TDStudyResult isolates the value of the sensitivity-weighted triangle
// distribution (Algorithm 1, line 23) against a uniform split, at several
// total ratios on the SC1 scene with mixed distances.
type TDStudyResult struct {
	Rows []TDRow
}

var _ fmt.Stringer = (*TDStudyResult)(nil)

// RunTDStudy compares the policies on SC1 with objects spread over several
// distances (sensitivity weighting only matters when objects differ).
func RunTDStudy(seed uint64) (*TDStudyResult, error) {
	built, err := scenario.SC1CF1().Build(seed)
	if err != nil {
		return nil, err
	}
	// Spread the objects over distances so their sensitivities differ.
	dists := []float64{0.8, 1.2, 1.6, 2.2, 3.0, 4.0, 1.0, 2.6, 3.4}
	for i, o := range built.Scene.Objects() {
		o.Distance = dists[i%len(dists)]
	}
	res := &TDStudyResult{}
	for _, x := range []float64{0.8, 0.6, 0.4, 0.2} {
		if err := alloc.DistributeTriangles(built.Scene.Objects(), x); err != nil {
			return nil, err
		}
		qs := built.Scene.AverageQuality()
		if err := alloc.DistributeTrianglesUniform(built.Scene.Objects(), x); err != nil {
			return nil, err
		}
		qu := built.Scene.AverageQuality()
		res.Rows = append(res.Rows, TDRow{TotalRatio: x, QualitySens: qs, QualityUniform: qu})
	}
	return res, nil
}

// String renders the TD ablation table.
func (r *TDStudyResult) String() string {
	var b strings.Builder
	b.WriteString("Triangle-distribution ablation (SC1, mixed distances)\n")
	rows := [][]string{{"Total Ratio", "Quality (sensitivity TD)", "Quality (uniform)", "Gain"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", row.TotalRatio),
			fmt.Sprintf("%.3f", row.QualitySens),
			fmt.Sprintf("%.3f", row.QualityUniform),
			fmt.Sprintf("%+.1f%%", (row.QualitySens/row.QualityUniform-1)*100),
		})
	}
	b.WriteString(table(rows))
	return b.String()
}
