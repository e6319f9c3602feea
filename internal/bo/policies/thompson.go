package policies

import (
	"math"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/sim"
)

// thompsonPriorSigma is the prior standard deviation of each arm's cost
// estimate. Costs on the HBO objective land in low single digits, so a
// unit prior keeps unexplored arms competitive for a few rounds without
// swamping observed means forever.
const thompsonPriorSigma = 1.0

// Thompson is Gaussian Thompson sampling over the same discretized
// allocation-simplex × quality-ratio arm set LinUCB races on: each arm
// keeps a conjugate-normal posterior over its cost (known-variance model,
// prior mean = the global observed mean, prior weight = one pseudo-
// observation); Next samples every posterior once and plays the arm with
// the lowest sampled cost. Warm-up draws uniformly from the domain until
// InitSamples observations arrive, mirroring the other entrants.
//
// Thompson is durable: posterior statistics are an RNG-free function of
// the observation history, so an OptimizerState (RNG position + history)
// fully determines the policy and restore is a replay of Observe calls.
type Thompson struct {
	bo.History

	arms   [][]float64 // discretized configurations, fixed at construction
	counts []int       // per-arm observation counts
	sums   []float64   // per-arm cost sums
}

// NewThompson builds the sampler over dom. cfg.InitSamples bounds the
// uniform warm-up; GP-specific cfg fields are ignored.
func NewThompson(dom bo.Domain, cfg bo.Config, rng *sim.RNG) (*Thompson, error) {
	h, err := bo.NewHistory(dom, cfg.InitSamples, rng)
	if err != nil {
		return nil, err
	}
	arms := buildArms(dom)
	return &Thompson{
		History: h,
		arms:    arms,
		counts:  make([]int, len(arms)),
		sums:    make([]float64, len(arms)),
	}, nil
}

// Next suggests uniformly at random during warm-up, then samples every
// arm's posterior and plays the lowest draw (strict minimum, so ties keep
// the lowest arm index).
func (t *Thompson) Next() ([]float64, error) {
	if p, ok := t.WarmUp(); ok {
		return p, nil
	}
	rng := t.RNG()
	prior := t.globalMean()
	bestIdx := 0
	bestDraw := math.Inf(1)
	for i := range t.arms {
		n := float64(t.counts[i])
		mean := (prior + t.sums[i]) / (n + 1)
		sigma := thompsonPriorSigma / math.Sqrt(n+1)
		if draw := mean + sigma*rng.Norm(); draw < bestDraw {
			bestDraw = draw
			bestIdx = i
		}
	}
	return append([]float64(nil), t.arms[bestIdx]...), nil
}

// Observe records the measured cost against the nearest arm. The update
// consumes no randomness, so snapshot restores replay it exactly.
func (t *Thompson) Observe(p []float64, cost float64) error {
	if err := t.History.Observe(p, cost); err != nil {
		return err
	}
	a := t.nearestArm(p)
	t.counts[a]++
	t.sums[a] += cost
	return nil
}

// globalMean is the prior mean: the average of every observed cost.
func (t *Thompson) globalMean() float64 {
	_, ys := t.Data()
	sum := 0.0
	for _, y := range ys {
		sum += y
	}
	return sum / float64(len(ys))
}

// nearestArm maps a point to the closest arm by squared L2 distance,
// strict minimum so ties keep the lowest arm index.
func (t *Thompson) nearestArm(p []float64) int {
	bestIdx := 0
	bestDist := math.Inf(1)
	for i, arm := range t.arms {
		d := 0.0
		for k, v := range arm {
			diff := p[k] - v
			d += diff * diff
		}
		if d < bestDist {
			bestDist = d
			bestIdx = i
		}
	}
	return bestIdx
}
