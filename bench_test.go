package hbo_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (each iteration regenerates the full artifact on the
// simulated substrate), plus micro-benchmarks for the load-bearing
// components. Run with:
//
//	go test -bench=. -benchmem
//
// The printable artifacts themselves come from cmd/hbobench.

import (
	"context"
	"runtime"
	"testing"
	"time"

	hbo "github.com/mar-hbo/hbo"
	"github.com/mar-hbo/hbo/internal/alloc"
	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/experiments"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/render"
	"github.com/mar-hbo/hbo/internal/scenario"
	"github.com/mar-hbo/hbo/internal/sim"
	"github.com/mar-hbo/hbo/internal/soc"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// benchArtifact runs one experiment artifact per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B)   { benchArtifact(b, "Table I") }
func BenchmarkFigure2a(b *testing.B) { benchArtifact(b, "Figure 2a") }
func BenchmarkFigure2b(b *testing.B) { benchArtifact(b, "Figure 2b") }
func BenchmarkFigure2c(b *testing.B) { benchArtifact(b, "Figure 2c") }
func BenchmarkFigure4TableIII(b *testing.B) {
	benchArtifact(b, "Figure 4 + Table III")
}
func BenchmarkFigure5TableIV(b *testing.B) {
	benchArtifact(b, "Figure 5 + Table IV")
}
func BenchmarkFigure6(b *testing.B) { benchArtifact(b, "Figure 6") }
func BenchmarkFigure7(b *testing.B) { benchArtifact(b, "Figure 7") }
func BenchmarkFigure8(b *testing.B) { benchArtifact(b, "Figure 8") }
func BenchmarkFigure9(b *testing.B) { benchArtifact(b, "Figure 9") }

// BenchmarkActivation measures one full HBO activation (20 control periods)
// on the heaviest scenario — the end-to-end cost of the paper's Algorithm 1
// loop on the simulated substrate.
func BenchmarkActivation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		app, err := hbo.New(hbo.Options{Scenario: "SC1-CF1", Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPFitPredict measures the Gaussian-process surrogate at the
// paper's database size (20 observations, 4 dimensions).
func BenchmarkGPFitPredict(b *testing.B) {
	rng := sim.NewRNG(1)
	dom := bo.Domain{N: 3, RMin: 0.1}
	xs := make([][]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		xs[i] = dom.Sample(rng)
		ys[i] = rng.Norm()
	}
	probe := dom.Sample(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp, err := bo.NewGP(bo.Matern52{LengthScale: 0.3, SignalVar: 1}, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		if err := gp.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
		gp.Predict(probe)
	}
}

// BenchmarkBOSuggestion measures one EI-driven suggestion (the per-iteration
// optimizer cost the paper bounds as O(K^3)).
func BenchmarkBOSuggestion(b *testing.B) { benchSuggestion(b, 0, 20) }

// BenchmarkDecimation measures QEM edge-collapse on a 3k-triangle mesh to
// half resolution — the edge server's unit of work.
func BenchmarkDecimation(b *testing.B) {
	m, err := mesh.Blob(3000, 7, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.DecimateToRatio(m, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgressiveBuild measures recording the progressive collapse log
// of the same 3k-triangle mesh: one exhaustive QEM run, paid once per object.
func BenchmarkProgressiveBuild(b *testing.B) {
	m, err := mesh.Blob(3000, 7, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.NewProgressive(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgressiveAt measures extracting BenchmarkDecimation's output
// (half resolution, bit-identical) from a prebuilt progressive log — the
// edge server's unit of work once the object's log exists.
func BenchmarkProgressiveAt(b *testing.B) {
	m, err := mesh.Blob(3000, 7, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	p, err := mesh.NewProgressive(m)
	if err != nil {
		b.Fatal(err)
	}
	target, err := mesh.RatioTarget(0.5, m.TriangleCount())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.At(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocationHeuristic measures Algorithm 1 lines 2-22 for the CF1
// taskset.
func BenchmarkAllocationHeuristic(b *testing.B) {
	prof, err := soc.ProfileTaskset(soc.Pixel7(), tasks.CF1(), 1)
	if err != nil {
		b.Fatal(err)
	}
	set := tasks.CF1()
	ids := make([]string, len(set.Tasks))
	for i, t := range set.Tasks {
		ids[i] = t.ID()
	}
	c := []float64{0.4, 0.1, 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts, err := alloc.Counts(c, len(ids))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := alloc.Assign(counts, prof, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorSecond measures one simulated second of the fully loaded
// SC1-CF1 system — the substrate's discrete-event throughput.
func BenchmarkSimulatorSecond(b *testing.B) {
	built, err := scenario.SC1CF1().Build(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built.System.RunFor(1000)
	}
}

// benchChaosSession drives a Periodic session through a link to the edge
// session service whose requests drop, 5xx, and spike (seeded injector,
// reproducible per iteration). The fault-tolerant client retries, breaks
// the circuit, and degrades to the local decimator; the fail-stop variant
// (no retries, no fallback) dies at the first activation that needs the
// link. Reported metrics: mean reward B_t per completed window and
// completed window count — the cost of not having the fault-tolerance
// layer.
func benchChaosSession(b *testing.B, failStop bool) {
	b.Helper()
	b.ReportAllocs()
	totalReward, totalWindows := 0.0, 0
	for i := 0; i < b.N; i++ {
		spec := scenario.SC1CF1()
		built, err := spec.Build(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		inj := faults.NewTransport(nil, uint64(i+1), faults.Plan{
			DropRate:        0.3,
			ServerErrorRate: 0.3,
			LatencyMeanMS:   0.5,
		})
		cfg := edge.DefaultClientConfig()
		cfg.Transport = inj
		cfg.BackoffBase = time.Millisecond
		cfg.BackoffMax = 2 * time.Millisecond
		cfg.BreakerOpenFor = 20 * time.Millisecond
		if failStop {
			cfg.MaxRetries = 0
		}
		sessCfg := chaosSessionConfig()
		_, sc, stop := chaosEdge(b, spec, sessCfg.HBO, cfg)
		ctx := context.Background()
		rt := built.Runtime
		rt.SetLODProvider(sessiond.NewLOD(ctx, sc))
		if !failStop {
			rt.SetLocalFallback(render.NewLocalDecimator(built.Library))
			rt.SetBOBackend(sessiond.NewBackend(ctx, sc))
		}
		sess, err := core.NewSession(rt, sessCfg, sim.NewRNG(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		// 20 monitor windows; a fail-stop session aborts at its first
		// activation through the faulty link and keeps whatever it got.
		for w := 0; w < 20; w++ {
			if err := sess.Step(); err != nil {
				break
			}
		}
		for _, s := range sess.Samples() {
			totalReward += s.Reward
			totalWindows++
		}
		stop()
	}
	if totalWindows > 0 {
		b.ReportMetric(totalReward/float64(totalWindows), "reward/window")
	}
	b.ReportMetric(float64(totalWindows)/float64(b.N), "windows/session")
}

// BenchmarkChaosSessionFaultTolerant is the reward under an unreliable link
// with the full fault-tolerance layer (retry + breaker + local fallback).
func BenchmarkChaosSessionFaultTolerant(b *testing.B) { benchChaosSession(b, false) }

// BenchmarkChaosSessionFailStop is the same link with a fail-stop client:
// the session dies at the first fault, so windows/session collapses.
func BenchmarkChaosSessionFailStop(b *testing.B) { benchChaosSession(b, true) }

// gpDataset draws n observations for the GP micro-benchmarks.
func gpDataset(n int) (xs [][]float64, ys []float64, probe []float64) {
	rng := sim.NewRNG(1)
	dom := bo.Domain{N: 3, RMin: 0.1}
	xs = make([][]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = dom.Sample(rng)
		ys[i] = rng.Norm()
	}
	return xs, ys, dom.Sample(rng)
}

// BenchmarkGPIncrementalGrowth grows a surrogate to 60 observations one
// point at a time through Update's incremental Cholesky path — O(n²) per
// append, O(n³) for the whole growth. Compare against
// BenchmarkGPFullRefitGrowth, which pays a fresh O(n³) factorization at
// every step (O(n⁴) total).
func BenchmarkGPIncrementalGrowth(b *testing.B) {
	xs, ys, _ := gpDataset(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp, err := bo.NewGP(bo.Matern52{LengthScale: 0.3, SignalVar: 1}, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		for j := range xs {
			if err := gp.Update(xs[:j+1], ys[:j+1]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGPFullRefitGrowth is the pre-optimization baseline for
// BenchmarkGPIncrementalGrowth: the same growth with a from-scratch Fit at
// every step.
func BenchmarkGPFullRefitGrowth(b *testing.B) {
	xs, ys, _ := gpDataset(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp, err := bo.NewGP(bo.Matern52{LengthScale: 0.3, SignalVar: 1}, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		for j := range xs {
			if err := gp.Fit(xs[:j+1], ys[:j+1]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGPPredictInto is the allocation-free posterior query (0
// allocs/op by contract; see TestPredictIntoZeroAlloc).
func BenchmarkGPPredictInto(b *testing.B) {
	xs, ys, probe := gpDataset(30)
	gp, err := bo.NewGP(bo.Matern52{LengthScale: 0.3, SignalVar: 1}, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	if err := gp.Fit(xs, ys); err != nil {
		b.Fatal(err)
	}
	var scratch bo.PredictScratch
	gp.PredictInto(probe, &scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp.PredictInto(probe, &scratch)
	}
}

// gpCandidatePool fits a GP on n observations and draws a 1024-point
// candidate pool, DefaultConfig's per-suggestion scoring workload.
func gpCandidatePool(b *testing.B, n int) (*bo.GP, [][]float64) {
	b.Helper()
	xs, ys, _ := gpDataset(n)
	gp, err := bo.NewGP(bo.Matern52{LengthScale: 0.3, SignalVar: 1}, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	if err := gp.Fit(xs, ys); err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	dom := bo.Domain{N: 3, RMin: 0.1}
	cands := make([][]float64, bo.DefaultConfig().Candidates)
	for i := range cands {
		cands[i] = dom.Sample(rng)
	}
	return gp, cands
}

// BenchmarkGPPredictBatch scores a 1024-candidate pool at n=30 through the
// batched posterior; BenchmarkGPPredictLoop scores the same pool with one
// PredictInto per point. Both produce bit-identical means and variances.
func BenchmarkGPPredictBatch(b *testing.B) {
	gp, cands := gpCandidatePool(b, 30)
	means := make([]float64, len(cands))
	variances := make([]float64, len(cands))
	var scratch bo.PredictScratch
	gp.PredictBatchInto(cands, means, variances, &scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp.PredictBatchInto(cands, means, variances, &scratch)
	}
}

func BenchmarkGPPredictLoop(b *testing.B) {
	gp, cands := gpCandidatePool(b, 30)
	means := make([]float64, len(cands))
	variances := make([]float64, len(cands))
	var scratch bo.PredictScratch
	gp.PredictInto(cands[0], &scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range cands {
			means[j], variances[j] = gp.PredictInto(p, &scratch)
		}
	}
}

// benchSuggestion measures one EI suggestion over the given number of
// observations. procs > 0 pins GOMAXPROCS (and with it the candidate-scoring
// parallelism) for the benchmark; 0 leaves it alone.
func benchSuggestion(b *testing.B, procs, observations int) {
	if procs > 0 {
		prev := runtime.GOMAXPROCS(procs)
		b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	rng := sim.NewRNG(1)
	dom := bo.Domain{N: 3, RMin: 0.1}
	opt, err := bo.NewOptimizer(dom, bo.DefaultConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < observations; i++ {
		p := dom.Sample(rng)
		if err := opt.Observe(p, rng.Norm()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBOSuggestionSerial scores the candidate pool on one goroutine
// (GOMAXPROCS pinned to 1); BenchmarkBOSuggestionParallel uses GOMAXPROCS
// workers. Both produce
// bit-identical suggestions. The Warm55 pair scores at n=55, the late end of
// a 60-iteration session, where candidate scoring dominates the suggest.
func BenchmarkBOSuggestionSerial(b *testing.B)         { benchSuggestion(b, 1, 20) }
func BenchmarkBOSuggestionParallel(b *testing.B)       { benchSuggestion(b, 0, 20) }
func BenchmarkBOSuggestionSerialWarm55(b *testing.B)   { benchSuggestion(b, 1, 55) }
func BenchmarkBOSuggestionParallelWarm55(b *testing.B) { benchSuggestion(b, 0, 55) }

// benchRunAll regenerates a small artifact subset through the scheduler at
// the given parallelism.
func benchRunAll(b *testing.B, jobs int) {
	ids := []string{"Table I", "TD", "CrossDevice"}
	var runners []experiments.Runner
	for _, id := range ids {
		r, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		runners = append(runners, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rep := range experiments.RunAll(runners, 42, jobs, nil) {
			if rep.Err != nil {
				b.Fatal(rep.Err)
			}
		}
	}
}

// BenchmarkRunAllSerial vs BenchmarkRunAllParallel is the harness-level
// speedup measurement (identical reports either way).
func BenchmarkRunAllSerial(b *testing.B)   { benchRunAll(b, 1) }
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0) }

// benchMeasureWindow measures one 2-second monitoring window on SC1-CF1 with
// the given default registry installed — the observability layer's overhead
// probe. With reg == nil every instrument is a nil pointer whose methods are
// no-ops, so allocs/op must match the pre-observability baseline exactly;
// with a live registry the contract is ≤2% extra wall time.
func benchMeasureWindow(b *testing.B, reg *obs.Registry) {
	b.Helper()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	built, err := scenario.SC1CF1().Build(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := built.Runtime.Measure(2000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureNilRegistry is the disabled path (nil instruments);
// BenchmarkMeasureLiveRegistry pays the atomic counters and histogram
// observes. Compare the two to verify the zero-overhead-when-disabled and
// ≤2%-when-live guarantees.
func BenchmarkMeasureNilRegistry(b *testing.B)  { benchMeasureWindow(b, nil) }
func BenchmarkMeasureLiveRegistry(b *testing.B) { benchMeasureWindow(b, obs.New()) }
