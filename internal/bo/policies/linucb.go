package policies

import (
	"math"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/sim"
)

// linucbAlpha is the exploration width of the UCB term. The classic
// theory-driven schedule scales it with log(t); a fixed width keeps the
// policy stateless beyond (A⁻¹, b) and is standard practice for LinUCB in
// small-horizon settings like the HBO loop (≤ tens of activations).
const linucbAlpha = 1.0

// linucbRatioGridSize is the quality-ratio discretization per allocation
// arm: K evenly spaced values spanning [RMin, 1].
const linucbRatioGridSize = 5

// linucbMaxArms bounds the discretized action set. The simplex granularity
// is chosen adaptively: the finest grid whose composition count × ratio
// grid stays under this bound, so low-dimensional domains get fine arms and
// high-dimensional ones degrade gracefully instead of exploding.
const linucbMaxArms = 2048

// LinUCB is a linear contextual bandit over a discretized allocation
// simplex × quality-ratio grid. Each arm is a full configuration
// [c_1..c_N, x]; its feature vector is the configuration itself plus a bias
// term, the reward is the negated cost, and the ridge design matrix is
// maintained as an inverse via Sherman–Morrison so arm scoring is O(d²)
// per arm with d = N+2.
//
// LinUCB is durable: (A⁻¹, b) is a deterministic, RNG-free function of the
// observation history, so an OptimizerState (RNG position + history) fully
// determines the policy and restore is a replay of Observe calls.
type LinUCB struct {
	bo.History

	arms [][]float64 // discretized configurations, fixed at construction
	dim  int         // feature dimension: Dim()+1 for the bias term

	ainv []float64 // d×d row-major inverse design matrix, starts at I
	bvec []float64 // d reward-weighted feature sums

	theta []float64 // scratch: A⁻¹ b
	fbuf  []float64 // scratch: arm features
	abuf  []float64 // scratch: A⁻¹ f
}

// NewLinUCB builds the bandit over dom. cfg.InitSamples random draws warm
// the design matrix before UCB takes over; other GP-specific cfg fields are
// ignored.
func NewLinUCB(dom bo.Domain, cfg bo.Config, rng *sim.RNG) (*LinUCB, error) {
	h, err := bo.NewHistory(dom, cfg.InitSamples, rng)
	if err != nil {
		return nil, err
	}
	d := dom.Dim() + 1
	l := &LinUCB{
		History: h,
		arms:    buildArms(dom),
		dim:     d,
		ainv:    make([]float64, d*d),
		bvec:    make([]float64, d),
		theta:   make([]float64, d),
		fbuf:    make([]float64, d),
		abuf:    make([]float64, d),
	}
	for i := 0; i < d; i++ {
		l.ainv[i*d+i] = 1 // ridge prior A = λI with λ=1
	}
	return l, nil
}

// buildArms enumerates the discretized action set: every composition of G
// into N parts (proportions k_i/G) crossed with the ratio grid, in
// deterministic lexicographic order. G is the finest granularity whose arm
// count fits linucbMaxArms.
func buildArms(dom bo.Domain) [][]float64 {
	g := 32
	for g > 1 && compositionCount(g, dom.N)*linucbRatioGridSize > linucbMaxArms {
		g--
	}
	var arms [][]float64
	comp := make([]int, dom.N)
	var rec func(idx, left int)
	rec = func(idx, left int) {
		if idx == dom.N-1 {
			comp[idx] = left
			for k := 0; k < linucbRatioGridSize; k++ {
				arm := make([]float64, dom.Dim())
				for i, c := range comp {
					arm[i] = float64(c) / float64(g)
				}
				arm[dom.N] = ratioGridValue(dom.RMin, k, linucbRatioGridSize)
				arms = append(arms, arm)
			}
			return
		}
		for c := 0; c <= left; c++ {
			comp[idx] = c
			rec(idx+1, left-c)
		}
	}
	rec(0, g)
	return arms
}

// compositionCount returns C(g+n-1, n-1), the number of ways to write g as
// an ordered sum of n non-negative integers, saturating to avoid overflow.
func compositionCount(g, n int) int {
	count := 1
	for i := 1; i < n; i++ {
		count = count * (g + i) / i
		if count > linucbMaxArms*linucbMaxArms {
			return count
		}
	}
	return count
}

// ratioGridValue returns the k-th of size evenly spaced ratios in [rmin, 1].
func ratioGridValue(rmin float64, k, size int) float64 {
	if size == 1 {
		return 1
	}
	return rmin + (1-rmin)*float64(k)/float64(size-1)
}

// Next suggests uniformly at random during warm-up, then the UCB-maximizing
// arm (ties broken by lowest arm index, so scans are order-stable).
func (l *LinUCB) Next() ([]float64, error) {
	if p, ok := l.WarmUp(); ok {
		return p, nil
	}
	l.solveTheta()
	bestIdx := 0
	bestScore := math.Inf(-1)
	for i, arm := range l.arms {
		if s := l.ucb(arm); s > bestScore {
			bestScore = s
			bestIdx = i
		}
	}
	return append([]float64(nil), l.arms[bestIdx]...), nil
}

// Observe records the measured cost and folds the point's features into the
// ridge design via Sherman–Morrison. The reward is the negated cost, so
// argmax-UCB minimizes cost.
func (l *LinUCB) Observe(p []float64, cost float64) error {
	if err := l.History.Observe(p, cost); err != nil {
		return err
	}
	f := l.features(p)
	// Sherman–Morrison: A⁻¹ ← A⁻¹ − (A⁻¹ f)(A⁻¹ f)ᵀ / (1 + fᵀ A⁻¹ f).
	af := l.matVec(l.abuf, f)
	denom := 1.0
	for i, v := range f {
		denom += v * af[i]
	}
	d := l.dim
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			l.ainv[i*d+j] -= af[i] * af[j] / denom
		}
	}
	for i, v := range f {
		l.bvec[i] += -cost * v
	}
	return nil
}

// ucb scores an arm: θᵀf + α√(fᵀ A⁻¹ f).
func (l *LinUCB) ucb(arm []float64) float64 {
	f := l.features(arm)
	af := l.matVec(l.abuf, f)
	mean, spread := 0.0, 0.0
	for i, v := range f {
		mean += l.theta[i] * v
		spread += v * af[i]
	}
	if spread < 0 {
		spread = 0 // guard against rounding drift in the maintained inverse
	}
	return mean + linucbAlpha*math.Sqrt(spread)
}

// features writes the point's feature vector [c_1..c_N, x, 1] into the
// shared scratch buffer.
func (l *LinUCB) features(p []float64) []float64 {
	copy(l.fbuf, p)
	l.fbuf[l.dim-1] = 1
	return l.fbuf
}

// matVec writes A⁻¹ v into dst.
func (l *LinUCB) matVec(dst, v []float64) []float64 {
	d := l.dim
	for i := 0; i < d; i++ {
		s := 0.0
		row := l.ainv[i*d : (i+1)*d]
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
	return dst
}

// solveTheta refreshes θ = A⁻¹ b.
func (l *LinUCB) solveTheta() {
	d := l.dim
	for i := 0; i < d; i++ {
		s := 0.0
		row := l.ainv[i*d : (i+1)*d]
		for j, rv := range row {
			s += rv * l.bvec[j]
		}
		l.theta[i] = s
	}
}
