package bo

// Tests for the AVX2/FMA posterior kernel (DESIGN.md §9): with the
// dispatch switched on and off, PredictBatchInto must return the same bits,
// and the kernel must hand back the rows math.Exp's main path cannot take.

import (
	"fmt"
	"math"
	"testing"

	"github.com/mar-hbo/hbo/internal/sim"
)

// requireQuadKernel skips on CPUs without the kernel and restores the
// dispatch after the test.
func requireQuadKernel(t testing.TB) {
	t.Helper()
	if !quadKernel {
		t.Skip("no AVX2/FMA quad kernel on this CPU")
	}
	t.Cleanup(func() { quadKernel = true })
}

// assertKernelMatchesPortable fails unless PredictBatchInto over pool
// returns the same bits with the quad kernel as with predictRows alone.
func assertKernelMatchesPortable(t *testing.T, name string, gp *GP, pool [][]float64) {
	t.Helper()
	var means, variances [2][]float64 // [0] with the kernel, [1] without
	for pass, kernel := range []bool{true, false} {
		quadKernel = kernel
		var s PredictScratch
		means[pass] = make([]float64, len(pool))
		variances[pass] = make([]float64, len(pool))
		gp.PredictBatchInto(pool, means[pass], variances[pass], &s)
	}
	quadKernel = true
	for i := range pool {
		if math.Float64bits(means[0][i]) != math.Float64bits(means[1][i]) ||
			math.Float64bits(variances[0][i]) != math.Float64bits(variances[1][i]) {
			t.Fatalf("%s: point %d: kernel (%v, %v) != portable (%v, %v)",
				name, i, means[0][i], variances[0][i], means[1][i], variances[1][i])
		}
	}
}

// TestQuadKernelMatchesPortable grows GPs in 1–6 dimensions from 1 to 64
// observations (the factor's stride runs ahead of n throughout) and
// compares the two paths at every size. The training set repeats a point
// and holds a far row at x₀ = 60; the pool holds a candidate on a training
// point (r = 0), a far candidate at x₀ = −60, for which √5·r/ℓ passes 708
// on the far row alone at ℓ = 0.3 and on every row at ℓ = 0.05, and a
// candidate with a NaN coordinate. σ² = 1.7, so a reassociated product
// shows.
func TestQuadKernelMatchesPortable(t *testing.T) {
	requireQuadKernel(t)
	rng := sim.NewRNG(21)
	for dim := 1; dim <= 6; dim++ {
		for _, l := range []float64{0.05, 0.3, 1} {
			gp, err := NewGP(Matern52{LengthScale: l, SignalVar: 1.7}, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			point := func() []float64 {
				p := make([]float64, dim)
				for i := range p {
					p[i] = rng.Float64()
				}
				return p
			}
			var xs [][]float64
			var ys []float64
			for n := 1; n <= 64; n++ {
				x := point()
				switch n {
				case 9:
					copy(x, xs[3])
				case 20:
					x[0] = 60
				}
				addObservation(t, gp, &xs, &ys, x, rng.Norm())
				pool := make([][]float64, 17)
				for i := range pool {
					pool[i] = point()
				}
				copy(pool[1], xs[n/2])
				pool[6][0] = -60
				pool[11][dim-1] = math.NaN()
				assertKernelMatchesPortable(t, fmt.Sprintf("dim %d ℓ %v n %d", dim, l, n), gp, pool)
			}
		}
	}
}

// TestQuadKernelNaNTrainingPoint covers a NaN coordinate in the training
// set, which turns the factor's later rows and α to NaN.
func TestQuadKernelNaNTrainingPoint(t *testing.T) {
	requireQuadKernel(t)
	rng := sim.NewRNG(22)
	dom := Domain{N: 3, RMin: 0.1}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 12; i++ {
		xs = append(xs, dom.Sample(rng))
		ys = append(ys, rng.Norm())
	}
	xs[5][1] = math.NaN()
	gp, err := NewGP(Matern52{LengthScale: 0.3, SignalVar: 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := gp.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	pool := make([][]float64, 8)
	for i := range pool {
		pool[i] = dom.Sample(rng)
	}
	assertKernelMatchesPortable(t, "NaN training point", gp, pool)
}

// TestQuadKernelStopsAtFarRow calls the kernel directly on quads whose
// last candidate is far from one training row only: √5·r/ℓ there is 894,
// where exp(−s) underflows to zero, or 730, where math.Exp takes its
// denormal branch. The far row sits at every index of GPs with 1 to 10
// observations, so the stop lands on either row of a pair in the kernel's
// substitution pass, both from row 0 and on the resumed call. The kernel
// must stop at that row, leave it for predictRows, and finish from the next
// with the portable loop's bits in m, v and every solved row.
func TestQuadKernelStopsAtFarRow(t *testing.T) {
	requireQuadKernel(t)
	rng := sim.NewRNG(23)
	const l = 0.3
	for n := 1; n <= 10; n++ {
		for far := 0; far < n; far++ {
			xs := make([][]float64, n)
			ys := make([]float64, n)
			for i := range xs {
				xs[i] = []float64{rng.Float64(), 0.5}
				ys[i] = rng.Norm()
			}
			xs[far][0] = 60
			gp, err := NewGP(Matern52{LengthScale: l, SignalVar: 1}, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if err := gp.Fit(xs, ys); err != nil {
				t.Fatal(err)
			}
			for _, s := range []float64{894, 730} {
				name := fmt.Sprintf("n %d far row %d s %v", n, far, s)
				q := [predictWidth][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}, {60 - s*l/sqrt5, 0.5}}
				cand := make([]float64, 0, 2*predictWidth)
				for d := 0; d < 2; d++ {
					cand = append(cand, q[0][d], q[1][d], q[2][d], q[3][d])
				}
				rows := make([][predictWidth]float64, n)
				st := quadState{
					cand: &cand[0], dim: 2, xs: &gp.x[0], alpha: &gp.alpha[0], chol: &gp.chol[0],
					stride: gp.stride, rows: &rows[0], n: n, k: gp.k,
				}
				if stop := predictQuadAVX2(&st, 0); stop != far {
					t.Fatalf("%s: kernel stopped at row %d, want the far row", name, stop)
				}
				gp.predictRows(&q, &st, rows, far, far+1)
				if stop := predictQuadAVX2(&st, far+1); stop != n {
					t.Fatalf("%s: resumed kernel stopped at row %d, want %d", name, stop, n)
				}
				var ref quadState
				refRows := make([][predictWidth]float64, n)
				gp.predictRows(&q, &ref, refRows, 0, n)
				for c := range q {
					if math.Float64bits(st.m[c]) != math.Float64bits(ref.m[c]) ||
						math.Float64bits(st.v[c]) != math.Float64bits(ref.v[c]) {
						t.Fatalf("%s: candidate %d: kernel (m %v, v %v) != portable (m %v, v %v)",
							name, c, st.m[c], st.v[c], ref.m[c], ref.v[c])
					}
					for i := range rows {
						if math.Float64bits(rows[i][c]) != math.Float64bits(refRows[i][c]) {
							t.Fatalf("%s: candidate %d row %d: kernel %v != portable %v",
								name, c, i, rows[i][c], refRows[i][c])
						}
					}
				}
			}
		}
	}
}
