package bo

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/sim"
)

// Domain is the paper's joint search space: an N-dimensional simplex of
// per-resource task proportions c (Constraints 8–9) crossed with the
// triangle-count ratio x in [RMin, 1] (Constraint 10). Points are encoded as
// vectors [c_1 ... c_N, x].
type Domain struct {
	// N is the number of allocatable resources.
	N int
	// RMin is the minimum total triangle ratio R^min.
	RMin float64
}

// Dim returns the point dimensionality (N proportions plus the ratio).
func (d Domain) Dim() int { return d.N + 1 }

// Validate checks the domain itself.
func (d Domain) Validate() error {
	if d.N < 1 {
		return fmt.Errorf("bo: domain needs at least one resource, got %d", d.N)
	}
	if d.RMin < 0 || d.RMin > 1 {
		return fmt.Errorf("bo: RMin %v out of [0,1]", d.RMin)
	}
	return nil
}

// Contains reports whether p satisfies Constraints 8–10 up to tolerance.
func (d Domain) Contains(p []float64) bool {
	if len(p) != d.Dim() {
		return false
	}
	sum := 0.0
	for i := 0; i < d.N; i++ {
		if p[i] < -1e-9 || p[i] > 1+1e-9 {
			return false
		}
		sum += p[i]
	}
	if math.Abs(sum-1) > 1e-6 {
		return false
	}
	x := p[d.N]
	return x >= d.RMin-1e-9 && x <= 1+1e-9
}

// Project maps an arbitrary vector onto the domain: proportions are clipped
// at zero and renormalized, the ratio is clamped.
func (d Domain) Project(p []float64) {
	sum := 0.0
	for i := 0; i < d.N; i++ {
		if p[i] < 0 || math.IsNaN(p[i]) {
			p[i] = 0
		}
		sum += p[i]
	}
	if sum <= 0 {
		for i := 0; i < d.N; i++ {
			p[i] = 1 / float64(d.N)
		}
	} else {
		for i := 0; i < d.N; i++ {
			p[i] /= sum
		}
	}
	x := p[d.N]
	if math.IsNaN(x) || x < d.RMin {
		x = d.RMin
	}
	if x > 1 {
		x = 1
	}
	p[d.N] = x
}

// Sample draws a uniform point: Dirichlet(1) on the simplex, uniform ratio.
func (d Domain) Sample(rng *sim.RNG) []float64 {
	p := make([]float64, d.Dim())
	d.sampleInto(rng, p)
	return p
}

// sampleInto draws a uniform point into p, which must have length Dim().
func (d Domain) sampleInto(rng *sim.RNG, p []float64) {
	rng.Dirichlet(1, p[:d.N])
	p[d.N] = d.RMin + (1-d.RMin)*rng.Float64()
}

// Distance returns the Euclidean distance between two points (used for the
// paper's Figure 6a exploration/exploitation analysis).
func Distance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		diff := a[i] - b[i]
		s += diff * diff
	}
	return math.Sqrt(s)
}

// Config tunes the optimizer.
type Config struct {
	// InitSamples is the number of random configurations explored before
	// the GP drives acquisition (the paper uses 5).
	InitSamples int
	// Candidates is the size of the random candidate pool scored by EI at
	// each suggestion.
	Candidates int
	// RefineSteps is the number of stochastic local-refinement steps
	// applied to the best EI candidate.
	RefineSteps int
	// NoiseVar is the observation-noise variance of the GP.
	NoiseVar float64
	// LengthScale is the Matérn length scale ℓ. The paper uses ℓ = 1;
	// DefaultConfig sets 0.3, a departure listed in DESIGN.md §2.
	LengthScale float64
	// Acquisition selects the acquisition function; nil means EI (the
	// paper's choice).
	Acquisition Acquisition
}

// DefaultConfig returns the paper-matching configuration.
func DefaultConfig() Config {
	return Config{
		InitSamples: 5,
		Candidates:  1024,
		RefineSteps: 60,
		NoiseVar:    0.01,
		LengthScale: 0.3,
		Acquisition: EI{},
	}
}

// Optimizer is a sequential model-based minimizer of a black-box function
// over a Domain, implementing the paper's BO(D) step (Algorithm 1, line 1).
// It is not safe for concurrent use. Between suggestions it keeps the GP
// surrogate's Cholesky factorization and extends it incrementally, so a
// suggestion costs O(n²) in the database size instead of O(n³).
type Optimizer struct {
	History
	cfg Config

	// Persistent surrogate: built at the first GP-phase Next, then extended
	// incrementally across Next calls (see DESIGN.md §9).
	gp *GP

	// Reusable scratch: winsorization buffers, the candidate pool, its
	// scores and posterior variances, per-scorer prediction scratch, and the
	// refinement's point, normals and quad of speculative steps.
	clipBuf    []float64
	sortBuf    []float64
	candFlat   []float64
	cands      [][]float64
	scores     []float64
	variances  []float64
	scratches  []PredictScratch
	refineTop  []float64
	refineZ    []float64
	refineQuad [predictWidth][]float64

	// The draw/score hand-off, reused across suggestions (see scorePool).
	// ready carries the index of each drawn block, then one stop sentinel
	// per scorer, and is empty between suggestions.
	ready   chan int
	scorers sync.WaitGroup

	// Observability instruments; nil (no-op) unless SetObserver is called.
	// The wall clock is read only when the suggestion-latency histogram is
	// live, and its value never feeds back into the search, so suggestions
	// are bit-identical with metrics on or off.
	metSuggestions *obs.Counter
	metRefits      *obs.Counter
	metUpdates     *obs.Counter
	metRestarts    *obs.Counter
	metGPSize      *obs.Gauge
	metSuggestMS   *obs.Histogram
}

// SetObserver attaches a metrics registry: suggestion count and wall-clock
// latency, GP database size, full refits versus incremental extensions, and
// Cholesky jitter-ladder restarts. Passing nil detaches.
func (o *Optimizer) SetObserver(reg *obs.Registry) {
	o.metSuggestions = reg.Counter("bo.suggestions")
	o.metRefits = reg.Counter("bo.gp_refits")
	o.metUpdates = reg.Counter("bo.gp_incremental_updates")
	o.metRestarts = reg.Counter("bo.jitter_restarts")
	o.metGPSize = reg.Gauge("bo.gp_size")
	o.metSuggestMS = reg.Histogram("bo.suggest_wall_ms", obs.LatencyBucketsMS)
	if o.gp != nil {
		o.gp.metRestarts = o.metRestarts
	}
}

// NewOptimizer builds an optimizer for the domain.
func NewOptimizer(dom Domain, cfg Config, rng *sim.RNG) (*Optimizer, error) {
	h, err := NewHistory(dom, cfg.InitSamples, rng)
	if err != nil {
		return nil, err
	}
	if cfg.Candidates < 1 || cfg.RefineSteps < 0 {
		return nil, fmt.Errorf("bo: invalid search budget %d/%d", cfg.Candidates, cfg.RefineSteps)
	}
	if cfg.LengthScale <= 0 {
		return nil, fmt.Errorf("bo: length scale must be positive, got %v", cfg.LengthScale)
	}
	if cfg.Acquisition == nil {
		cfg.Acquisition = EI{}
	}
	return &Optimizer{History: h, cfg: cfg}, nil
}

// Next suggests the next configuration to evaluate: random during the
// initialization phase, then the EI-maximizing candidate under the GP
// posterior. The candidate pool is drawn on the calling goroutine in
// serial order from the seeded RNG, one block of poolBlock candidates at a
// time, and each drawn block is scored at once by a pool of
// min(GOMAXPROCS, blocks) scorers; the argmax breaks ties by lowest index,
// so the result is bit-identical to a serial draw-then-scan.
func (o *Optimizer) Next() ([]float64, error) {
	o.metSuggestions.Inc()
	if o.metSuggestMS == nil {
		return o.next()
	}
	start := time.Now()
	p, err := o.next()
	o.metSuggestMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return p, err
}

func (o *Optimizer) next() ([]float64, error) {
	if p, ok := o.WarmUp(); ok {
		return p, nil
	}
	start, topEI, best, err := o.bestOfPool()
	if err != nil {
		return nil, err
	}
	return o.refine(start, topEI, best), nil
}

// bestOfPool syncs the surrogate, draws and scores the candidate pool, and
// returns its first highest-scoring candidate with that score and the
// incumbent's cost. The candidate is pool storage, valid until the next
// suggestion.
func (o *Optimizer) bestOfPool() (start []float64, topEI, best float64, err error) {
	if err := o.ensureSurrogate(o.clippedCosts()); err != nil {
		return nil, 0, 0, err
	}
	bi := o.BestIndex()
	bestPoint, best := o.xs[bi], o.ys[bi]

	dim := o.dom.Dim()
	blocks := (o.cfg.Candidates + poolBlock - 1) / poolBlock
	workers := max(1, min(runtime.GOMAXPROCS(0), blocks))
	o.ensureSearchBuffers(o.cfg.Candidates, dim, blocks, workers)
	o.scorePool(bestPoint, best, blocks, workers)
	topIdx := 0
	topEI = math.Inf(-1)
	for i, ei := range o.scores[:o.cfg.Candidates] {
		if ei > topEI {
			topEI = ei
			topIdx = i
		}
	}
	return o.cands[topIdx], topEI, best, nil
}

// refine runs the stochastic local refinement from start, whose score is
// topEI, and returns the point it ends on. Step i perturbs the current
// point by step·z_i, with z_i the step's dim normals, and moves there if
// the perturbation scores above topEI; a rejected step shrinks step by
// 0.93. Every step draws its normals whatever its outcome, so all of them
// are drawn up front in the serial order. The steps are then scored a quad
// at a time on the guess that each is rejected: step i+j perturbs the same
// point by step·0.93^j. The quad is walked in order up to its first
// acceptance, and the search resumes from the accepted point at the next
// step with the accepted step's scale. Every point whose score is
// compared, and the one returned, is the one-step-at-a-time loop's, bit
// for bit; a speculated step past an acceptance is discarded unread.
func (o *Optimizer) refine(start []float64, topEI, best float64) []float64 {
	dim := len(start)
	steps := o.cfg.RefineSteps
	zs := o.refineZ[:steps*dim]
	for i := range zs {
		zs[i] = o.rng.Norm()
	}
	top := append(o.refineTop[:0], start...)
	var means, variances, scales [predictWidth]float64
	step := 0.2
	for i := 0; i < steps; {
		quad := o.refineQuad[:min(predictWidth, steps-i)]
		scale := step
		for j, p := range quad {
			z := zs[(i+j)*dim:]
			for d := range p {
				p[d] = top[d] + scale*z[d]
			}
			o.dom.Project(p)
			scales[j] = scale
			scale *= 0.93
		}
		o.gp.PredictBatchInto(quad, means[:], variances[:], &o.scratches[0])
		next := i + len(quad)
		step = scale
		for j := range quad {
			if ei := o.cfg.Acquisition.Score(means[j], variances[j], best); ei > topEI {
				topEI = ei
				copy(top, quad[j])
				step, next = scales[j], i+j+1
				break
			}
		}
		i = next
	}
	return append([]float64(nil), top...)
}

// ensureSurrogate brings the persistent GP in sync with the observation
// database: a full fit when none exists yet (the first GP-phase Next, or
// the first after a restore), an O(n²) incremental extension otherwise.
// Targets are re-standardized every call because the winsorization clip
// level moves with the database.
func (o *Optimizer) ensureSurrogate(clipped []float64) error {
	if o.gp == nil {
		gp, err := NewGP(Matern52{LengthScale: o.cfg.LengthScale, SignalVar: 1}, o.cfg.NoiseVar)
		if err != nil {
			return err
		}
		gp.metRestarts = o.metRestarts
		if err := gp.Fit(o.xs, clipped); err != nil {
			return fmt.Errorf("bo: surrogate fit: %w", err)
		}
		o.gp = gp
		o.metRefits.Inc()
		o.metGPSize.Set(float64(gp.Observations()))
		return nil
	}
	if err := o.gp.Update(o.xs, clipped); err != nil {
		return fmt.Errorf("bo: surrogate fit: %w", err)
	}
	o.metUpdates.Inc()
	o.metGPSize.Set(float64(o.gp.Observations()))
	return nil
}

// ensureSearchBuffers sizes the candidate pool, score, scratch, hand-off
// and refinement buffers without allocating on the steady state.
func (o *Optimizer) ensureSearchBuffers(n, dim, blocks, workers int) {
	if cap(o.candFlat) < n*dim {
		o.candFlat = make([]float64, n*dim)
		o.cands = make([][]float64, n)
		for i := range o.cands {
			o.cands[i] = o.candFlat[i*dim : (i+1)*dim]
		}
	}
	if cap(o.scores) < n {
		o.scores = make([]float64, n)
		o.variances = make([]float64, n)
	}
	o.scores, o.variances = o.scores[:n], o.variances[:n]
	if cap(o.refineTop) < dim {
		o.refineTop = make([]float64, dim)
		for j := range o.refineQuad {
			o.refineQuad[j] = make([]float64, dim)
		}
	}
	if cap(o.refineZ) < o.cfg.RefineSteps*dim {
		o.refineZ = make([]float64, o.cfg.RefineSteps*dim)
	}
	if len(o.scratches) < workers {
		o.scratches = make([]PredictScratch, workers)
	}
	// Every send of a suggestion fits the buffer, so the caller never waits
	// on a slow scorer and a lone caller can fill the queue before it
	// drains it.
	if cap(o.ready) < blocks+workers {
		o.ready = make(chan int, blocks+workers)
	}
}

// poolBlock is the number of candidates drawn before the block is handed
// to the scorers: a multiple of predictWidth, so only the pool's last block
// can leave a tail for PredictInto. Its value is measured in DESIGN.md §9.
const poolBlock = 64

// scorePool draws the candidate pool and fills o.scores with its
// acquisition values. The calling goroutine draws every candidate in
// serial order, uniform draws mixed with perturbations of the incumbent,
// on the single RNG stream, and queues each finished block of poolBlock
// candidates; workers−1 goroutines score blocks as they arrive, and the
// caller joins them once the last block is drawn. A scorer reads only
// blocks already handed to it, and each candidate's score depends only on
// the frozen GP and the incumbent, so no split of the blocks among the
// scorers can change a value.
func (o *Optimizer) scorePool(incumbent []float64, best float64, blocks, workers int) {
	o.scorers.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(s *PredictScratch) {
			defer o.scorers.Done()
			o.scoreBlocks(best, s)
		}(&o.scratches[w])
	}
	n := o.cfg.Candidates
	for b := 0; b < blocks; b++ {
		for i := b * poolBlock; i < min((b+1)*poolBlock, n); i++ {
			if i%4 == 0 {
				o.perturbInto(o.cands[i], incumbent, 0.15)
			} else {
				o.dom.sampleInto(o.rng, o.cands[i])
			}
		}
		o.ready <- b
	}
	for w := 0; w < workers; w++ {
		o.ready <- -1
	}
	o.scoreBlocks(best, &o.scratches[0])
	o.scorers.Wait()
}

// scoreBlocks scores queued blocks until it takes a stop sentinel.
func (o *Optimizer) scoreBlocks(best float64, s *PredictScratch) {
	for b := <-o.ready; b >= 0; b = <-o.ready {
		lo := b * poolBlock
		o.scoreChunk(lo, min(lo+poolBlock, o.cfg.Candidates), best, s)
	}
}

// scoreChunk scores candidates [lo, hi) through the batched posterior. The
// posterior means land in o.scores and are replaced by the acquisition
// value in place.
//
//hbo:noalloc
func (o *Optimizer) scoreChunk(lo, hi int, best float64, s *PredictScratch) {
	scores, variances := o.scores[lo:hi], o.variances[lo:hi]
	o.gp.PredictBatchInto(o.cands[lo:hi], scores, variances, s)
	for i, mean := range scores {
		scores[i] = o.cfg.Acquisition.Score(mean, variances[i], best)
	}
}

// clippedCosts returns the observations winsorized at an upper quantile,
// reusing internal buffers (the returned slice is valid until the next
// call). HBO's cost is unbounded above (a saturated configuration can be
// orders of magnitude slower than a good one); feeding such outliers to the
// GP blows up the output scale and erases the resolution needed to
// discriminate among *good* configurations. Clipping preserves "this region
// is bad" while keeping the interesting region's scale.
func (o *Optimizer) clippedCosts() []float64 {
	ys := append(o.clipBuf[:0], o.ys...)
	o.clipBuf = ys
	sorted := append(o.sortBuf[:0], o.ys...)
	o.sortBuf = sorted
	sort.Float64s(sorted)
	// 70th percentile as the clip level, but never below best + a minimal
	// spread so early iterations (few points, all bad) still discriminate.
	clip := sorted[(len(sorted)*7)/10]
	if len(sorted) >= 2 {
		if minSpread := sorted[0] + (sorted[1] - sorted[0]) + 1e-9; clip < minSpread {
			clip = minSpread
		}
	}
	for i, y := range ys {
		if y > clip {
			ys[i] = clip
		}
	}
	return ys
}

// perturbInto writes a projected Gaussian perturbation of p into dst.
func (o *Optimizer) perturbInto(dst, p []float64, scale float64) {
	for i := range p {
		dst[i] = p[i] + scale*o.rng.Norm()
	}
	o.dom.Project(dst)
}
