// Package bo implements the Bayesian-optimization machinery of the paper
// from scratch on the standard library: Gaussian-process regression with the
// Matérn-5/2 kernel (Eq. 7, ν = 5/2; the paper uses length scale 1,
// DefaultConfig uses 0.3), the Expected Improvement acquisition function,
// and a constrained optimizer over the paper's search domain — the simplex
// of per-resource task proportions (Eqs. 8–9) crossed with the
// triangle-ratio interval (Eq. 10). It replaces the scikit-optimize (skopt)
// dependency of the paper's prototype.
//
// The regression hot path is engineered for the controller's activation
// loop: the Cholesky factor is stored as a flat row-major triangle that
// grows by O(n²) incremental row appends instead of O(n³) refits, and
// PredictInto and its batched form PredictBatchInto score candidates
// without allocating. On amd64 with AVX2 and FMA the batched form runs in
// an assembly kernel that returns the portable Go loop's bits (see
// DESIGN.md §9).
package bo

import (
	"errors"
	"fmt"
	"math"

	"github.com/mar-hbo/hbo/internal/obs"
)

// sqrt5 hoists the √5 of the Matérn-5/2 kernel out of the innermost loop.
var sqrt5 = math.Sqrt(5)

// Matern52 is the Matérn kernel with ν = 5/2 (Eq. 7 of the paper):
//
//	k(r) = σ² (1 + √5 r/ℓ + 5r²/3ℓ²) exp(−√5 r/ℓ)
type Matern52 struct {
	// LengthScale is ℓ. The paper uses 1; DefaultConfig uses 0.3 (see
	// Config.LengthScale).
	LengthScale float64
	// SignalVar is σ²_φ.
	SignalVar float64
}

// matern52c is a Matern52 with the per-evaluation constants √5/ℓ and
// 5/(3ℓ²) precomputed once; GP fitting and prediction evaluate this form so
// the kernel's innermost loop is two multiplies, a sqrt, and an exp.
type matern52c struct {
	signalVar   float64
	sqrt5OverL  float64 // √5/ℓ
	fiveOver3L2 float64 // 5/(3ℓ²)
}

// compile precomputes the constant factors of the kernel.
func (k Matern52) compile() matern52c {
	return matern52c{
		signalVar:   k.SignalVar,
		sqrt5OverL:  sqrt5 / k.LengthScale,
		fiveOver3L2: 5 / (3 * k.LengthScale * k.LengthScale),
	}
}

// Eval returns the Matérn-5/2 covariance of a and b.
func (k matern52c) Eval(a, b []float64) float64 {
	r2 := 0.0
	for i := range a {
		d := a[i] - b[i]
		r2 += d * d
	}
	r := math.Sqrt(r2)
	s := k.sqrt5OverL * r
	return k.signalVar * (1 + s + k.fiveOver3L2*r2) * math.Exp(-s)
}

// eval4 returns Eval(p0, x) … Eval(p3, x), each bit-identical to its Eval.
// The four evaluations are independent, so they are issued stage by stage —
// four distance accumulators, then four square roots, then four exps back
// to back — and their latency chains overlap instead of running one after
// another. Every value keeps Eval's expression and operand order.
func (k matern52c) eval4(p0, p1, p2, p3, x []float64) (k0, k1, k2, k3 float64) {
	p1, p2, p3, x = p1[:len(p0)], p2[:len(p0)], p3[:len(p0)], x[:len(p0)]
	var r0, r1, r2, r3 float64
	for i, a := range p0 {
		b := x[i]
		d0, d1, d2, d3 := a-b, p1[i]-b, p2[i]-b, p3[i]-b
		r0 += d0 * d0
		r1 += d1 * d1
		r2 += d2 * d2
		r3 += d3 * d3
	}
	s0 := k.sqrt5OverL * math.Sqrt(r0)
	s1 := k.sqrt5OverL * math.Sqrt(r1)
	s2 := k.sqrt5OverL * math.Sqrt(r2)
	s3 := k.sqrt5OverL * math.Sqrt(r3)
	e0, e1, e2, e3 := math.Exp(-s0), math.Exp(-s1), math.Exp(-s2), math.Exp(-s3)
	k0 = k.signalVar * (1 + s0 + k.fiveOver3L2*r0) * e0
	k1 = k.signalVar * (1 + s1 + k.fiveOver3L2*r1) * e1
	k2 = k.signalVar * (1 + s2 + k.fiveOver3L2*r2) * e2
	k3 = k.signalVar * (1 + s3 + k.fiveOver3L2*r3) * e3
	return k0, k1, k2, k3
}

// Eval returns the Matérn-5/2 covariance of a and b.
func (k Matern52) Eval(a, b []float64) float64 {
	return k.compile().Eval(a, b)
}

// GP is a Gaussian-process regressor (the paper's surrogate model, Eq. 6).
// Fit factorizes the kernel matrix once; Predict then evaluates the
// posterior mean and variance at arbitrary points. Between activations
// Update extends the factorization one observation at a time at O(n²)
// instead of refit's O(n³).
//
// Methods that mutate the GP (Fit, Update) are not safe for concurrent use;
// Predict, PredictInto and PredictBatchInto (with per-goroutine scratch)
// may run concurrently once the GP is fitted.
type GP struct {
	k     matern52c // the kernel with its constants precomputed
	noise float64   // observation noise variance added to the diagonal

	x [][]float64
	n int // fitted observations

	// chol is the lower-triangular Cholesky factor of K + noise·I stored
	// row-major with the given stride; row i occupies chol[i*stride : i*stride+i+1].
	chol   []float64
	stride int
	// jitter is the diagonal jitter the current factorization needed; zero
	// in the common case. A jittered factor is never extended incrementally
	// (each fresh fit restarts the jitter ladder from zero, so extending a
	// jittered factor would diverge from a from-scratch refit).
	jitter float64

	yMean float64
	yStd  float64
	alpha []float64 // (K + noise·I)^{-1} of the standardized observations

	// metRestarts counts jitter-ladder restarts during factorization (an
	// indefinite kernel matrix forcing a retry with more diagonal jitter).
	// Nil — the common case — is a no-op.
	metRestarts *obs.Counter
}

// NewGP returns a regressor with the given kernel and observation-noise
// variance. Noise must be positive: the measured cost in HBO is itself a
// noisy window average.
func NewGP(kernel Matern52, noiseVar float64) (*GP, error) {
	if noiseVar <= 0 {
		return nil, fmt.Errorf("bo: noise variance must be positive, got %v", noiseVar)
	}
	return &GP{k: kernel.compile(), noise: noiseVar}, nil
}

// Fit conditions the GP on observations (x, y) with a full O(n³)
// factorization. It does not copy the x rows; the caller must not mutate
// them afterward.
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("bo: %d inputs but %d observations", len(x), len(y))
	}
	if len(x) == 0 {
		return errors.New("bo: cannot fit GP on zero observations")
	}
	n := len(x)
	g.x = x
	g.ensureStride(n) // before g.n moves: it preserves the old factor's rows
	g.n = n
	if err := g.factorize(); err != nil {
		g.n = 0
		return err
	}
	g.setTargets(y)
	return nil
}

// Update extends the fit to the observation set (x, y), where x must be the
// previously fitted inputs followed by zero or more new points and y carries
// the (possibly re-scaled, e.g. re-winsorized) targets for all of them. New
// points are appended to the Cholesky factor at O(n²) each; the targets are
// re-standardized and re-solved at O(n²). It falls back to a full refit when
// the incremental append is numerically unsafe (the previous factorization
// needed jitter, or a new diagonal pivot is non-positive), so the resulting
// model is always identical to a from-scratch Fit on the same data.
func (g *GP) Update(x [][]float64, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("bo: %d inputs but %d observations", len(x), len(y))
	}
	if g.n == 0 || len(x) < g.n || g.jitter > 0 {
		return g.Fit(x, y)
	}
	g.ensureStride(len(x))
	for i := g.n; i < len(x); i++ {
		if !g.appendRow(x, i) {
			g.n = 0
			return g.Fit(x, y)
		}
		g.n = i + 1
	}
	g.x = x
	g.setTargets(y)
	return nil
}

// Observations returns the number of fitted observations.
func (g *GP) Observations() int { return g.n }

// ensureStride grows the flat factor storage to hold n rows, preserving the
// already-factorized triangle.
func (g *GP) ensureStride(n int) {
	if n <= g.stride {
		return
	}
	newStride := g.stride * 2
	if newStride < n {
		newStride = n
	}
	if newStride < 16 {
		newStride = 16
	}
	grown := make([]float64, newStride*newStride)
	for i := 0; i < g.n; i++ {
		copy(grown[i*newStride:i*newStride+i+1], g.chol[i*g.stride:i*g.stride+i+1])
	}
	g.chol = grown
	g.stride = newStride
}

// factorize (re)computes the full Cholesky factor of K + noise·I in place,
// adding growing jitter to the diagonal if the matrix is numerically
// indefinite. Kernel evaluation and elimination are interleaved row by row —
// exactly the arithmetic an incremental appendRow performs, so the two paths
// agree to the last bit.
func (g *GP) factorize() error {
	jitter := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		ok := true
		for i := 0; i < g.n; i++ {
			if !g.eliminateRow(g.x, i, jitter) {
				ok = false
				break
			}
		}
		if ok {
			g.jitter = jitter
			return nil
		}
		g.metRestarts.Inc()
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 100
		}
	}
	return errors.New("bo: kernel matrix is not positive definite even with jitter")
}

// appendRow extends the factor with row i of the observation set x, assuming
// rows 0..i-1 are already factorized jitter-free. It reports whether the new
// diagonal pivot stayed positive.
func (g *GP) appendRow(x [][]float64, i int) bool {
	return g.eliminateRow(x, i, 0)
}

// eliminateRow evaluates kernel row i and performs its forward-elimination
// step of the Cholesky factorization in place.
func (g *GP) eliminateRow(x [][]float64, i int, jitter float64) bool {
	row := g.chol[i*g.stride : i*g.stride+i+1]
	xi := x[i]
	for j := 0; j < i; j++ {
		row[j] = g.k.Eval(xi, x[j])
	}
	row[i] = g.k.Eval(xi, xi) + g.noise
	for j := 0; j <= i; j++ {
		sum := row[j]
		if i == j {
			sum += jitter
		}
		lj := g.chol[j*g.stride : j*g.stride+j]
		for k := 0; k < j; k++ {
			sum -= row[k] * lj[k]
		}
		if i == j {
			if sum <= 0 {
				return false
			}
			row[j] = math.Sqrt(sum)
		} else {
			row[j] = sum / g.chol[j*g.stride+j]
		}
	}
	return true
}

// setTargets standardizes the targets and re-solves for alpha against the
// current factorization. O(n²); called whenever the targets change (new
// observation, or a winsorization clip level moved old ones).
func (g *GP) setTargets(y []float64) {
	n := g.n
	g.yMean = 0
	for _, v := range y {
		g.yMean += v
	}
	g.yMean /= float64(n)
	// Standardize observations: HBO's measured costs can span orders of
	// magnitude (a saturated configuration is catastrophically slow), and
	// the GP prior assumes unit-scale outputs.
	variance := 0.0
	for _, v := range y {
		d := v - g.yMean
		variance += d * d
	}
	g.yStd = math.Sqrt(variance / float64(n))
	if g.yStd < 1e-9 {
		g.yStd = 1
	}
	g.alpha = grow(g.alpha, n, g.stride)
	for i, v := range y {
		g.alpha[i] = (v - g.yMean) / g.yStd
	}
	g.forwardSolveInPlace(g.alpha)
	g.backSolveInPlace(g.alpha)
}

// grow returns a slice of length n reusing buf's storage when it can. A
// fresh buffer gets capacity c (at least n): callers pass the GP's doubling
// stride, so a buffer tracking the database size is reallocated O(log n)
// times as observations arrive, not once per point.
func grow[T any](buf []T, n, c int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n, max(n, c))
}

// forwardSolveInPlace solves L·v = b for lower-triangular L, overwriting b.
func (g *GP) forwardSolveInPlace(b []float64) {
	for i := 0; i < len(b); i++ {
		sum := b[i]
		li := g.chol[i*g.stride : i*g.stride+i]
		for k := 0; k < i; k++ {
			sum -= li[k] * b[k]
		}
		b[i] = sum / g.chol[i*g.stride+i]
	}
}

// backSolveInPlace solves Lᵀ·x = b for lower-triangular L, overwriting b.
func (g *GP) backSolveInPlace(b []float64) {
	n := len(b)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= g.chol[k*g.stride+i] * b[k]
		}
		b[i] = sum / g.chol[i*g.stride+i]
	}
}

// PredictScratch is caller-owned scratch for PredictInto and
// PredictBatchInto. A zero value is ready to use; reusing one across calls
// makes prediction allocation-free. Concurrent predictors must each own
// their own scratch.
type PredictScratch struct {
	buf  []float64
	rows [][predictWidth]float64 // PredictBatchInto's interleaved kernel rows
	cand []float64               // the quad kernel's candidates, transposed
}

// predictWidth is the number of candidates PredictBatchInto scores per pass
// over the Cholesky factor.
const predictWidth = 4

// Predict returns the posterior mean and variance at point p (Eq. 6's
// N(μ_t, σ_t²)). Variance is clamped at zero against round-off. It allocates
// a transient buffer; hot loops should hold a PredictScratch and call
// PredictInto instead.
func (g *GP) Predict(p []float64) (mean, variance float64) {
	var s PredictScratch
	return g.PredictInto(p, &s)
}

// PredictInto is Predict with caller-owned scratch: zero allocations once
// the scratch has warmed up, so a candidate-scoring loop can evaluate
// thousands of points without touching the garbage collector.
//
//hbo:noalloc
func (g *GP) PredictInto(p []float64, s *PredictScratch) (mean, variance float64) {
	n := g.n
	if n == 0 {
		return g.yMean, g.k.Eval(p, p)
	}
	ks := grow(s.buf, n, g.stride) //hbo:allowalloc scratch warm-up: grows with the factor's stride, then every call reuses the buffer
	s.buf = ks
	for i := 0; i < n; i++ {
		ks[i] = g.k.Eval(p, g.x[i])
	}
	std := 0.0
	for i := range ks {
		std += ks[i] * g.alpha[i]
	}
	mean = g.yMean + g.yStd*std
	g.forwardSolveInPlace(ks)
	variance = g.k.Eval(p, p)
	for _, vi := range ks {
		variance -= vi * vi
	}
	return mean, clampVariance(variance) * g.yStd * g.yStd
}

// clampVariance clamps a posterior variance at zero against round-off. NaN
// and −0 pass through unchanged (unlike the max builtin, which maps −0 to
// +0), so batched and per-point prediction agree to the bit.
func clampVariance(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// PredictBatchInto evaluates the posterior at every point of ps, setting
// means[i] and variances[i] to exactly what PredictInto(ps[i], s) returns,
// bit for bit. means and variances must be at least len(ps) long.
//
// Points are scored predictWidth at a time in one pass over the Cholesky
// factor: each row's kernel values, mean dot-product terms, and forward-
// substitution step are computed for all of them together, so a factor row
// is loaded once per group and the groups' independent dependency chains
// overlap. Every candidate keeps its own accumulators and PredictInto's
// operation sequence (same start values, same k order, division by the
// pivot, variance·yStd·yStd left to right), which is what keeps the result
// identical. On CPUs with AVX2 and FMA a quad's whole pass runs in one
// assembly call (quadKernel); elsewhere, and for the rows that call hands
// back, predictRows runs it in Go. A tail shorter than predictWidth goes
// through PredictInto.
//
//hbo:noalloc
func (g *GP) PredictBatchInto(ps [][]float64, means, variances []float64, s *PredictScratch) {
	n := g.n
	full := 0
	if n > 0 {
		full = len(ps) - len(ps)%predictWidth
	}
	if full > 0 {
		// rows[k][c] is entry k of candidate c's solved L⁻¹k(p_c, X); row i
		// reads entries 0..i-1 and appends entry i.
		rows := grow(s.rows, n, g.stride) //hbo:allowalloc scratch warm-up: grows with the factor's stride, then every call reuses the buffer
		s.rows = rows
		st := quadState{
			xs: &g.x[0], alpha: &g.alpha[0], chol: &g.chol[0], rows: &rows[0],
			n: n, stride: g.stride, k: g.k,
		}
		// The kernel reads dim coordinates of every training point, so it
		// takes only quads no wider than the narrowest of them.
		xdim := 0
		if quadKernel {
			xdim = len(g.x[0])
			for _, x := range g.x[1:n] {
				xdim = min(xdim, len(x))
			}
		}
		for lo := 0; lo < full; lo += predictWidth {
			q := (*[predictWidth][]float64)(ps[lo : lo+predictWidth])
			st.m = [predictWidth]float64{}
			st.v = [predictWidth]float64{g.k.Eval(q[0], q[0]), g.k.Eval(q[1], q[1]), g.k.Eval(q[2], q[2]), g.k.Eval(q[3], q[3])}
			if dim := len(q[0]); dim > 0 && dim <= xdim {
				cand := grow(s.cand, predictWidth*dim, predictWidth*dim) //hbo:allowalloc scratch warm-up: sized by the dimension once, then every call reuses the buffer
				s.cand = cand
				for d := range dim {
					c := (*[predictWidth]float64)(cand[predictWidth*d:])
					c[0], c[1], c[2], c[3] = q[0][d], q[1][d], q[2][d], q[3][d]
				}
				st.cand, st.dim = &cand[0], dim
				for i := predictQuadAVX2(&st, 0); i < n; i = predictQuadAVX2(&st, i+1) {
					g.predictRows(q, &st, rows, i, i+1)
				}
			} else {
				g.predictRows(q, &st, rows, 0, n)
			}
			for c, m := range st.m {
				means[lo+c] = g.yMean + g.yStd*m
				variances[lo+c] = clampVariance(st.v[c]) * g.yStd * g.yStd
			}
		}
	}
	for i := full; i < len(ps); i++ {
		means[i], variances[i] = g.PredictInto(ps[i], s)
	}
}

// quadState carries one quad of candidates through PredictBatchInto's pass
// over the factor: the fitted GP it reads, the quad's transposed
// coordinates, and its four mean (m) and variance (v) accumulators, which
// predictRows and predictQuadAVX2 read on entry and write back on return.
// The assembly kernel finds the fields by the offsets in go_asm.h.
type quadState struct {
	m, v   [predictWidth]float64
	cand   *float64 // cand[predictWidth*d+c] is coordinate d of candidate c
	dim    int
	xs     *[]float64 // the training points
	alpha  *float64
	chol   *float64
	stride int
	rows   *[predictWidth]float64
	n      int
	k      matern52c
}

// predictRows runs rows [from, to) of PredictBatchInto's pass for the quad
// q: row i evaluates the four kernel values k(p_c, x_i), adds their
// α-weighted terms to the mean accumulators, runs the row-i substitution
// steps against the solved entries 0..i−1, divides by the pivot, stores
// entry i, and subtracts its square from the variance accumulators. It is
// the portable path and the reference predictQuadAVX2 must match bit for
// bit.
func (g *GP) predictRows(q *[predictWidth][]float64, st *quadState, rows [][predictWidth]float64, from, to int) {
	p0, p1, p2, p3 := q[0], q[1], q[2], q[3]
	m0, m1, m2, m3 := st.m[0], st.m[1], st.m[2], st.m[3]
	v0, v1, v2, v3 := st.v[0], st.v[1], st.v[2], st.v[3]
	for i := from; i < to; i++ {
		xi, a := g.x[i], g.alpha[i]
		s0, s1, s2, s3 := g.k.eval4(p0, p1, p2, p3, xi)
		m0 += s0 * a
		m1 += s1 * a
		m2 += s2 * a
		m3 += s3 * a
		li := g.chol[i*g.stride : i*g.stride+i+1]
		for k, l := range li[:i] {
			b := &rows[k]
			s0 -= l * b[0]
			s1 -= l * b[1]
			s2 -= l * b[2]
			s3 -= l * b[3]
		}
		d := li[i]
		s0, s1, s2, s3 = s0/d, s1/d, s2/d, s3/d
		rows[i] = [predictWidth]float64{s0, s1, s2, s3}
		v0 -= s0 * s0
		v1 -= s1 * s1
		v2 -= s2 * s2
		v3 -= s3 * s3
	}
	st.m = [predictWidth]float64{m0, m1, m2, m3}
	st.v = [predictWidth]float64{v0, v1, v2, v3}
}

// normPDF is the standard normal density.
func normPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// normCDF is the standard normal distribution function.
func normCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// ExpectedImprovement returns EI for *minimization*: the expected amount by
// which a draw from N(mean, variance) improves on best.
func ExpectedImprovement(mean, variance, best float64) float64 {
	sigma := math.Sqrt(variance)
	if sigma < 1e-12 {
		if mean < best {
			return best - mean
		}
		return 0
	}
	z := (best - mean) / sigma
	return (best-mean)*normCDF(z) + sigma*normPDF(z)
}
