package policies

import (
	"math"
	"sort"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/sim"
)

// CMAES is a separable (diagonal-covariance) CMA-ES over the joint domain,
// following Ros & Hansen's sep-CMA-ES: full covariance adaptation is
// overkill for the HBO decision space (a handful of dimensions, tens of
// evaluations) and the diagonal restriction keeps every update O(d).
//
// The ask/tell shape is adapted to the Policy contract by making the
// distribution a pure function of the observation history: the mean starts
// at the best of the cfg.InitSamples warm-up observations, and every λ
// observations after warm-up form one generation, ranked by their own
// costs. Next samples N(m, σ²·diag(C)) from the seeded RNG and never
// touches the distribution, so an unobserved suggestion, or an observation
// of a point the policy never suggested, cannot misalign a later ranking.
// Like every other entrant, the snapshot is the RNG position plus the
// history, and Restore replays Observe.
type CMAES struct {
	bo.History

	// Strategy parameters, fixed at construction for d = dom.Dim().
	lambda  int
	mu      int
	weights []float64
	mueff   float64
	csigma  float64
	dsigma  float64
	cc      float64
	c1      float64
	cmu     float64
	chiN    float64

	// Evolving distribution state, set by start once the warm-up is
	// observed and advanced by update at every generation boundary.
	mean  []float64
	sigma float64
	diagC []float64 // diagonal covariance
	ps    []float64 // conjugate evolution path (step size)
	pc    []float64 // evolution path (covariance)
	gen   int       // completed generation count
}

// NewCMAES builds the strategy over dom. The first cfg.InitSamples
// observations are the warm-up; the distribution starts from the best of
// them.
func NewCMAES(dom bo.Domain, cfg bo.Config, rng *sim.RNG) (*CMAES, error) {
	h, err := bo.NewHistory(dom, cfg.InitSamples, rng)
	if err != nil {
		return nil, err
	}
	d := float64(dom.Dim())
	lambda := 4 + int(3*math.Log(d))
	mu := lambda / 2
	weights := make([]float64, mu)
	sum := 0.0
	for i := range weights {
		weights[i] = math.Log(float64(mu)+0.5) - math.Log(float64(i+1))
		sum += weights[i]
	}
	sqsum := 0.0
	for i := range weights {
		weights[i] /= sum
		sqsum += weights[i] * weights[i]
	}
	mueff := 1 / sqsum
	csigma := (mueff + 2) / (d + mueff + 5)
	c1 := 2 / ((d+1.3)*(d+1.3) + mueff) * (d + 2) / 3 // sep-CMA-ES ×(d+2)/3 rate boost
	cmu := math.Min(1-c1, 2*(mueff-2+1/mueff)/((d+2)*(d+2)+mueff)*(d+2)/3)
	return &CMAES{
		History: h,
		lambda:  lambda,
		mu:      mu,
		weights: weights,
		mueff:   mueff,
		csigma:  csigma,
		dsigma:  1 + 2*math.Max(0, math.Sqrt((mueff-1)/(d+1))-1) + csigma,
		cc:      (4 + mueff/d) / (d + 4 + 2*mueff/d),
		c1:      c1,
		cmu:     cmu,
		chiN:    math.Sqrt(d) * (1 - 1/(4*d) + 1/(21*d*d)),
	}, nil
}

// Next suggests uniformly at random during warm-up, then samples from
// N(m, σ²·diag(C)) projected onto the domain.
func (c *CMAES) Next() ([]float64, error) {
	if p, ok := c.WarmUp(); ok {
		return p, nil
	}
	dom, rng := c.Domain(), c.RNG()
	phen := make([]float64, dom.Dim())
	for k := range phen {
		phen[k] = c.mean[k] + c.sigma*math.Sqrt(c.diagC[k])*rng.Norm()
	}
	dom.Project(phen)
	return phen, nil
}

// Observe records the cost. The last warm-up observation starts the
// distribution; every λ-th observation after it completes a generation and
// triggers the update.
func (c *CMAES) Observe(p []float64, cost float64) error {
	if err := c.History.Observe(p, cost); err != nil {
		return err
	}
	switch n := c.PastWarmUp(); {
	case n == 0:
		c.start()
	case n > 0 && n%c.lambda == 0:
		xs, ys := c.Data()
		c.update(xs[len(xs)-c.lambda:], ys[len(ys)-c.lambda:])
	}
	return nil
}

// start initializes the distribution at the warm-up's best observation.
func (c *CMAES) start() {
	xs, _ := c.Data()
	d := c.Domain().Dim()
	c.mean = append([]float64(nil), xs[c.BestIndex()]...)
	c.sigma = 0.3
	c.diagC = make([]float64, d)
	for k := range c.diagC {
		c.diagC[k] = 1
	}
	c.ps = make([]float64, d)
	c.pc = make([]float64, d)
}

// update performs one sep-CMA-ES generation step over one generation's λ
// observations: rank by cost (ties broken by observation order), recombine
// the mean from the top μ, and adapt the evolution paths, the step size,
// and the diagonal covariance.
func (c *CMAES) update(xs [][]float64, ys []float64) {
	d := c.Domain().Dim()
	order := make([]int, c.lambda)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ys[order[a]] < ys[order[b]]
	})

	// Effective steps are measured from the evaluated (projected) points,
	// not the raw genotypes, so boundary clipping feeds back into the
	// distribution consistently with what was scored.
	oldMean := append([]float64(nil), c.mean...)
	yw := make([]float64, d)
	for i := 0; i < c.mu; i++ {
		x := xs[order[i]]
		for k := 0; k < d; k++ {
			yw[k] += c.weights[i] * (x[k] - oldMean[k]) / c.sigma
		}
	}
	for k := 0; k < d; k++ {
		c.mean[k] = oldMean[k] + c.sigma*yw[k]
	}

	psNorm := 0.0
	for k := 0; k < d; k++ {
		c.ps[k] = (1-c.csigma)*c.ps[k] +
			math.Sqrt(c.csigma*(2-c.csigma)*c.mueff)*yw[k]/math.Sqrt(c.diagC[k])
		psNorm += c.ps[k] * c.ps[k]
	}
	psNorm = math.Sqrt(psNorm)
	c.gen++
	hsig := 0.0
	if psNorm/math.Sqrt(1-math.Pow(1-c.csigma, 2*float64(c.gen))) <
		(1.4+2/float64(d+1))*c.chiN {
		hsig = 1
	}
	for k := 0; k < d; k++ {
		c.pc[k] = (1-c.cc)*c.pc[k] + hsig*math.Sqrt(c.cc*(2-c.cc)*c.mueff)*yw[k]
	}
	for k := 0; k < d; k++ {
		rankMu := 0.0
		for i := 0; i < c.mu; i++ {
			y := (xs[order[i]][k] - oldMean[k]) / c.sigma
			rankMu += c.weights[i] * y * y
		}
		c.diagC[k] = (1-c.c1-c.cmu)*c.diagC[k] +
			c.c1*(c.pc[k]*c.pc[k]+(1-hsig)*c.cc*(2-c.cc)*c.diagC[k]) +
			c.cmu*rankMu
		if c.diagC[k] < 1e-12 {
			c.diagC[k] = 1e-12
		}
	}
	c.sigma *= math.Exp(c.csigma / c.dsigma * (psNorm/c.chiN - 1))
	if c.sigma < 1e-8 {
		c.sigma = 1e-8
	}
	if c.sigma > 10 {
		c.sigma = 10
	}
}
