package bo

// Tests for the performance architecture (DESIGN.md §9): the incremental
// Cholesky update must be numerically indistinguishable from a full refit,
// the prediction hot paths must not allocate, batched prediction must be
// bit-identical to per-point prediction, and parallel candidate scoring
// must be bit-identical to a serial scan, and the four-wide kernel must
// match the per-pair one.

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"testing"

	"github.com/mar-hbo/hbo/internal/sim"
)

// TestIncrementalUpdateMatchesFullRefit grows one GP observation-by-
// observation via Update (the incremental append-row path) and refits a
// second GP from scratch at every step; the Cholesky factor and α must
// match bit for bit, which is what lets a restored optimizer refit instead
// of carrying the factor, and posteriors must agree to 1e-9. Every few steps the targets are rewritten wholesale, mimicking the
// optimizer's winsorization clip level moving, which must also be absorbed
// without drift.
func TestIncrementalUpdateMatchesFullRefit(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42} {
		rng := sim.NewRNG(seed)
		dom := Domain{N: 3, RMin: 0.1}
		kern := Matern52{LengthScale: 0.3, SignalVar: 1}

		inc, err := NewGP(kern, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		var xs [][]float64
		var ys []float64
		probes := make([][]float64, 8)
		for i := range probes {
			probes[i] = dom.Sample(rng)
		}
		for step := 0; step < 30; step++ {
			xs = append(xs, dom.Sample(rng))
			ys = append(ys, rng.Norm())
			if step%5 == 4 {
				// Wholesale target rewrite (winsorization analogue): the
				// factorization must be reused, only alpha recomputed.
				clip := rng.Norm()
				for i := range ys {
					if ys[i] > clip {
						ys[i] = clip
					}
				}
			}
			if err := inc.Update(xs, ys); err != nil {
				t.Fatalf("seed %d step %d: Update: %v", seed, step, err)
			}

			fresh, err := NewGP(kern, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Fit(xs, ys); err != nil {
				t.Fatalf("seed %d step %d: Fit: %v", seed, step, err)
			}
			for _, p := range probes {
				m1, v1 := inc.Predict(p)
				m2, v2 := fresh.Predict(p)
				if math.Abs(m1-m2) > 1e-9 || math.Abs(v1-v2) > 1e-9 {
					t.Fatalf("seed %d step %d: incremental (%.12g, %.12g) vs refit (%.12g, %.12g)",
						seed, step, m1, v1, m2, v2)
				}
			}
			if inc.n != fresh.n || inc.jitter != fresh.jitter {
				t.Fatalf("seed %d step %d: incremental n=%d jitter=%v vs refit n=%d jitter=%v",
					seed, step, inc.n, inc.jitter, fresh.n, fresh.jitter)
			}
			for i := 0; i < inc.n; i++ {
				for j := 0; j <= i; j++ {
					a, b := inc.chol[i*inc.stride+j], fresh.chol[i*fresh.stride+j]
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("seed %d step %d: L[%d][%d] %v vs %v", seed, step, i, j, a, b)
					}
				}
				if math.Float64bits(inc.alpha[i]) != math.Float64bits(fresh.alpha[i]) {
					t.Fatalf("seed %d step %d: α[%d] %v vs %v", seed, step, i, inc.alpha[i], fresh.alpha[i])
				}
			}
		}
	}
}

// addObservation appends (x, y) to the database (xs, ys) and extends gp to
// it through Update, the optimizer's incremental path.
func addObservation(t *testing.T, gp *GP, xs *[][]float64, ys *[]float64, x []float64, y float64) {
	t.Helper()
	*xs = append(*xs, x)
	*ys = append(*ys, y)
	if err := gp.Update(*xs, *ys); err != nil {
		t.Fatal(err)
	}
}

// TestPredictIntoZeroAlloc pins the hot path's allocation-free contract:
// with a warm scratch, PredictInto must not touch the heap.
func TestPredictIntoZeroAlloc(t *testing.T) {
	rng := sim.NewRNG(4)
	dom := Domain{N: 3, RMin: 0.1}
	gp, err := NewGP(Matern52{LengthScale: 0.3, SignalVar: 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 25)
	ys := make([]float64, 25)
	for i := range xs {
		xs[i] = dom.Sample(rng)
		ys[i] = rng.Norm()
	}
	if err := gp.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	probe := dom.Sample(rng)
	var scratch PredictScratch
	gp.PredictInto(probe, &scratch) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		gp.PredictInto(probe, &scratch)
	})
	if allocs != 0 {
		t.Fatalf("PredictInto allocates %.1f times per call, want 0", allocs)
	}

	// And PredictInto must agree exactly with Predict.
	m1, v1 := gp.Predict(probe)
	m2, v2 := gp.PredictInto(probe, &scratch)
	if m1 != m2 || v1 != v2 {
		t.Fatalf("PredictInto (%v, %v) != Predict (%v, %v)", m2, v2, m1, v1)
	}
}

// TestPredictBatchIntoMatchesPredictInto pins the batched posterior to the
// per-point one bit for bit, across database sizes that cross every stride
// regrowth (16, 32, 64, 128) and pool sizes that exercise the tail shorter
// than predictWidth. One scratch is shared by both paths throughout, so
// buffer reuse and regrowth are covered too.
func TestPredictBatchIntoMatchesPredictInto(t *testing.T) {
	rng := sim.NewRNG(11)
	dom := Domain{N: 3, RMin: 0.1}
	gp, err := NewGP(Matern52{LengthScale: 0.3, SignalVar: 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([][]float64, 1024)
	for i := range pool {
		pool[i] = dom.Sample(rng)
	}
	var s PredictScratch
	var xs [][]float64
	var ys []float64
	for _, n := range []int{0, 1, 2, 7, 16, 17, 59, 130} {
		for gp.Observations() < n {
			addObservation(t, gp, &xs, &ys, dom.Sample(rng), rng.Norm())
		}
		for _, size := range []int{1, 3, 4, 5, 1023, 1024} {
			assertBatchMatches(t, fmt.Sprintf("n=%d pool=%d", n, size), gp, pool[:size], &s)
		}
	}
}

// TestPredictBatchIntoJitteredFactor covers a factor that needed diagonal
// jitter: duplicated inputs under negligible noise make K + noise·I
// singular, so the Cholesky ladder must retry before prediction runs.
func TestPredictBatchIntoJitteredFactor(t *testing.T) {
	rng := sim.NewRNG(12)
	dom := Domain{N: 3, RMin: 0.1}
	gp, err := NewGP(Matern52{LengthScale: 0.3, SignalVar: 1}, 1e-18)
	if err != nil {
		t.Fatal(err)
	}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 12; i++ {
		p := dom.Sample(rng)
		xs = append(xs, p, p)
		ys = append(ys, rng.Norm(), rng.Norm())
	}
	if err := gp.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if gp.jitter == 0 {
		t.Fatal("duplicate points fitted without jitter; the test no longer covers a jittered factor")
	}
	pool := make([][]float64, 1023)
	for i := range pool {
		pool[i] = dom.Sample(rng)
	}
	pool[5] = xs[0] // a candidate on a duplicated observation
	var s PredictScratch
	assertBatchMatches(t, "jittered", gp, pool, &s)
}

// assertBatchMatches fails unless PredictBatchInto over pool returns the
// same bits as PredictInto point by point.
func assertBatchMatches(t *testing.T, name string, gp *GP, pool [][]float64, s *PredictScratch) {
	t.Helper()
	means := make([]float64, len(pool))
	variances := make([]float64, len(pool))
	gp.PredictBatchInto(pool, means, variances, s)
	for i, p := range pool {
		m, v := gp.PredictInto(p, s)
		if math.Float64bits(m) != math.Float64bits(means[i]) ||
			math.Float64bits(v) != math.Float64bits(variances[i]) {
			t.Fatalf("%s: point %d: batch (%v, %v) != PredictInto (%v, %v)",
				name, i, means[i], variances[i], m, v)
		}
	}
}

// TestPredictBatchIntoZeroAlloc pins the batched path's allocation-free
// contract with a warm scratch, including the PredictInto tail.
func TestPredictBatchIntoZeroAlloc(t *testing.T) {
	rng := sim.NewRNG(4)
	dom := Domain{N: 3, RMin: 0.1}
	gp, err := NewGP(Matern52{LengthScale: 0.3, SignalVar: 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 25; i++ {
		addObservation(t, gp, &xs, &ys, dom.Sample(rng), rng.Norm())
	}
	pool := make([][]float64, 1023)
	for i := range pool {
		pool[i] = dom.Sample(rng)
	}
	means := make([]float64, len(pool))
	variances := make([]float64, len(pool))
	var scratch PredictScratch
	gp.PredictBatchInto(pool, means, variances, &scratch) // warm the scratch
	allocs := testing.AllocsPerRun(20, func() {
		gp.PredictBatchInto(pool, means, variances, &scratch)
	})
	if allocs != 0 {
		t.Fatalf("PredictBatchInto allocates %.1f times per call, want 0", allocs)
	}
}

// TestScratchRegrowthLogarithmic grows a GP by 64 observations and counts
// how often the buffers that track the database size are reallocated: the
// prediction scratch (both paths) and alpha.
// Sized from the factor's doubling stride, each may regrow O(log n) times,
// never once per observation.
func TestScratchRegrowthLogarithmic(t *testing.T) {
	const adds = 64
	rng := sim.NewRNG(5)
	dom := Domain{N: 3, RMin: 0.1}
	gp, err := NewGP(Matern52{LengthScale: 0.3, SignalVar: 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([][]float64, 8)
	for i := range pool {
		pool[i] = dom.Sample(rng)
	}
	means := make([]float64, len(pool))
	variances := make([]float64, len(pool))
	var s PredictScratch
	caps := func() [3]int {
		return [3]int{cap(s.buf), cap(s.rows), cap(gp.alpha)}
	}
	names := [3]string{"PredictScratch.buf", "PredictScratch.rows", "GP.alpha"}
	var regrowths [3]int
	prev := caps()
	var xs [][]float64
	var ys []float64
	for i := 0; i < adds; i++ {
		addObservation(t, gp, &xs, &ys, dom.Sample(rng), rng.Norm())
		gp.PredictInto(pool[0], &s)
		gp.PredictBatchInto(pool, means, variances, &s)
		now := caps()
		for b := range now {
			if now[b] != prev[b] {
				regrowths[b]++
			}
		}
		prev = now
	}
	limit := bits.Len(adds) // ⌈log₂ 64⌉ + 1
	for b, n := range regrowths {
		if n > limit {
			t.Errorf("%s reallocated %d times over %d observations, want <= %d", names[b], n, adds, limit)
		}
	}
}

// TestParallelSuggestionDeterminism runs identically seeded optimizers with
// 1, 2, 3 and 4 scorers (GOMAXPROCS set before each suggest) through a full
// observe/suggest loop; every suggestion must be bit-identical to the
// one-scorer run. The pool sizes sit on every block edge: pools smaller
// than predictWidth, a single partial block, one block exactly, one
// candidate either side of it, fewer blocks than scorers, and 1023
// candidates, whose last block leaves a tail for the per-point path.
func TestParallelSuggestionDeterminism(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	dom := Domain{N: 3, RMin: 0.1}
	// Synthetic objective, deterministic in the point.
	cost := func(p []float64) float64 {
		s := 0.0
		for i, v := range p {
			s += float64(i+1) * (v - 0.4) * (v - 0.4)
		}
		return s
	}
	pools := []int{1, 3, 4, poolBlock - 1, poolBlock, poolBlock + 1, 1023, 1024}
	for _, candidates := range pools {
		opts := make([]*Optimizer, 4)
		for j := range opts {
			cfg := DefaultConfig()
			cfg.Candidates = candidates
			opt, err := NewOptimizer(dom, cfg, sim.NewRNG(77))
			if err != nil {
				t.Fatal(err)
			}
			opts[j] = opt
		}
		for iter := 0; iter < 15; iter++ {
			var serial []float64
			for j, opt := range opts {
				runtime.GOMAXPROCS(j + 1)
				p, err := opt.Next()
				if err != nil {
					t.Fatal(err)
				}
				if j == 0 {
					serial = p
				}
				for i := range p {
					if math.Float64bits(p[i]) != math.Float64bits(serial[i]) {
						t.Fatalf("candidates %d iter %d: GOMAXPROCS=%d suggests %v, serial %v",
							candidates, iter, j+1, p, serial)
					}
				}
				if err := opt.Observe(p, cost(p)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestEval4MatchesEval pins the four-wide kernel helper to Matern52.Eval bit
// for bit: identical points (r = 0), distances at which exp underflows to a
// subnormal and to zero, and random points in several dimensions, at
// length scales from 0.01 to 10.
func TestEval4MatchesEval(t *testing.T) {
	rng := sim.NewRNG(6)
	for _, l := range []float64{0.01, 0.1, 0.3, 1, 10} {
		kern := Matern52{LengthScale: l, SignalVar: 1.7}
		kc := kern.compile()
		// Distances at which √5·r/ℓ puts k in the subnormal range and at
		// which exp(−√5·r/ℓ) underflows to zero.
		sub, zero := 735*l/sqrt5, 800*l/sqrt5
		for dim := 1; dim <= 5; dim++ {
			for trial := 0; trial < 200; trial++ {
				x := make([]float64, dim)
				for i := range x {
					x[i] = rng.Float64()
				}
				var ps [4][]float64
				for c := range ps {
					ps[c] = make([]float64, dim)
					for i := range ps[c] {
						ps[c][i] = rng.Float64() * 2
					}
				}
				copy(ps[1], x) // r = 0
				ps[2][0] = x[0] + sub
				ps[3][0] = x[0] - zero
				copy(ps[2][1:], x[1:])
				copy(ps[3][1:], x[1:])
				var got [4]float64
				got[0], got[1], got[2], got[3] = kc.eval4(ps[0], ps[1], ps[2], ps[3], x)
				for c, p := range ps {
					if want := kern.Eval(p, x); math.Float64bits(got[c]) != math.Float64bits(want) {
						t.Fatalf("ℓ=%v dim %d trial %d: eval4[%d] = %v (%#x), Eval = %v (%#x)",
							l, dim, trial, c, got[c], math.Float64bits(got[c]), want, math.Float64bits(want))
					}
				}
			}
		}
		if v := kern.Eval([]float64{0}, []float64{sub}); v == 0 || v >= 0x1p-1022 {
			t.Fatalf("ℓ=%v: k at the subnormal distance is %v, not subnormal", l, v)
		}
		if v := kern.Eval([]float64{0}, []float64{zero}); v != 0 {
			t.Fatalf("ℓ=%v: k at the underflow distance is %v, not 0", l, v)
		}
	}
}

// FuzzPredictBatch fits a GP on fuzzed points and requires PredictBatchInto
// to return PredictInto's bits for every candidate, on the portable path
// and, where the CPU has it, through the quad kernel. The bytes fix the
// dimension, the database size, the noise level and every coordinate on a
// 1/255 grid, so repeated and coincident points come up often; the
// candidates are the remaining points followed by the observations
// themselves.
func FuzzPredictBatch(f *testing.F) {
	f.Add([]byte{2, 5, 2, 10, 200, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 7, 9, 11, 13, 1, 2, 3}, 0.3)
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, 1.0)
	f.Add([]byte{5, 39, 0, 255, 255, 0, 0, 128, 128, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, 0.01)
	// Odd database sizes, so the quad kernel's paired substitution rows
	// end on an unpaired one: three coordinates and a target per
	// observation, then eight pool points.
	for _, n := range []byte{1, 3, 7, 13} {
		seed := []byte{2, n, 0}
		for i := range 4*int(n) + 3*8 {
			seed = append(seed, byte(37*i+11))
		}
		f.Add(seed, 0.3)
	}
	f.Fuzz(func(t *testing.T, data []byte, lengthScale float64) {
		if len(data) < 3 || !(lengthScale > 0) || math.IsInf(lengthScale, 0) {
			t.Skip()
		}
		dim := 1 + int(data[0]%6)
		nObs := int(data[1] % 40)
		noise := [...]float64{0.01, 1e-6, 1e-18}[data[2]%3]
		data = data[3:]
		point := func() []float64 {
			p := make([]float64, dim)
			for i := range p {
				p[i] = float64(data[i]) / 255
			}
			data = data[dim:]
			return p
		}
		var xs [][]float64
		var ys []float64
		for len(xs) < nObs && len(data) > dim {
			xs = append(xs, point())
			ys = append(ys, float64(data[0])/128-1)
			data = data[1:]
		}
		var pool [][]float64
		for len(data) >= dim {
			pool = append(pool, point())
		}
		pool = append(pool, xs...)
		gp, err := NewGP(Matern52{LengthScale: lengthScale, SignalVar: 1}, noise)
		if err != nil {
			t.Fatal(err)
		}
		if len(xs) > 0 {
			if err := gp.Fit(xs, ys); err != nil {
				t.Skip(err) // indefinite even with jitter
			}
		}
		kernel := quadKernel
		defer func() { quadKernel = kernel }()
		for _, on := range []bool{false, kernel} {
			quadKernel = on
			var s PredictScratch
			assertBatchMatches(t, fmt.Sprintf("dim %d n %d ℓ %v quad kernel %v", dim, len(xs), lengthScale, quadKernel), gp, pool, &s)
		}
	})
}

// TestNextAllocs pins a warm suggestion's allocations. With one scorer the
// only one is the returned point; the incumbent is read in place, not
// copied through Best. At GOMAXPROCS 2 the spawned scorer adds its
// goroutine, under a bound of 7. The hand-off queue, the pool and every
// scratch buffer are reused across suggestions.
func TestNextAllocs(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	rng := sim.NewRNG(1)
	dom := Domain{N: 3, RMin: 0.1}
	opt, err := NewOptimizer(dom, DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := opt.Observe(dom.Sample(rng), rng.Norm()); err != nil {
			t.Fatal(err)
		}
	}
	next := func() {
		if _, err := opt.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ procs, max int }{{1, 1}, {2, 7}} {
		runtime.GOMAXPROCS(c.procs)
		next() // warm the buffers at this scorer count
		// testing.AllocsPerRun pins GOMAXPROCS to 1, so count mallocs
		// directly.
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			next()
		}
		runtime.ReadMemStats(&after)
		if allocs := float64(after.Mallocs-before.Mallocs) / runs; allocs > float64(c.max) {
			t.Errorf("GOMAXPROCS=%d: warm Next makes %.2f allocs, want <= %d", c.procs, allocs, c.max)
		}
	}
}
