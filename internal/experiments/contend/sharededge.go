// Package contend models the server side of the multi-user shared-edge
// scenario: one edge GPU serving every connected user's offloaded
// inferences under processor sharing, plus a bounded decimation worker
// pool, and a contention-aware cross-session scheduler that looks ahead
// over predicted per-session activity to admit, defer, or locally-degrade
// users.
//
// It sits beside sessiond's per-shard admission controller: where the
// admission controller bounds a live shard's suggest queue by rejecting
// overflow with 503s, contend models what the *compute* behind those
// queues does once requests are admitted — per-request latency that grows
// deterministically with concurrent load — and decides which sessions
// should even reach the queue. The machinery mirrors internal/soc's
// processor-sharing simulator (jobs with remaining demand, rates
// recomputed on every arrival and completion, deterministic tie-breaks),
// applied server-side to the shared GPU instead of a phone SoC.
//
// Determinism contract: the package reads no wall clock and owns no RNG.
// Completion times are a pure function of the submission sequence
// (arrival time, demand, submission order); simultaneous completions
// resolve by submission sequence, and equal-tick arrivals are served in
// submission order, so two identical runs produce bit-identical latency
// streams. The package is in detlint's determinism-critical set.
package contend

import (
	"fmt"
	"math"

	"github.com/mar-hbo/hbo/internal/obs"
)

// JobKind selects which shared resource a job consumes.
type JobKind int

const (
	// Inference jobs share the edge GPU under processor sharing.
	Inference JobKind = iota + 1
	// Decimation jobs run on the bounded worker pool (FIFO beyond the
	// worker count).
	Decimation
)

// Job is one request in flight on the shared edge. Fields are read-only to
// callers once submitted.
type Job struct {
	// ID is the submission sequence number — the deterministic tie-break
	// for equal-time events.
	ID int
	// User tags the submitting session (an index into the caller's fleet).
	User int
	// Kind selects the resource.
	Kind JobKind
	// Arrival is the virtual submission time (ms).
	Arrival float64
	// Demand is the service demand in ms at rate 1.
	Demand float64
	// Finish is the completion time; valid once Done.
	Finish float64
	// Done reports completion.
	Done bool

	remaining float64
	// serving marks a decimation job that holds a pool worker.
	serving bool
}

// Latency returns the job's end-to-end sojourn time; valid once Done.
func (j *Job) Latency() float64 { return j.Finish - j.Arrival }

// Config shapes the shared edge.
type Config struct {
	// GPUCapacity is how many milliseconds of inference demand the shared
	// GPU retires per millisecond (i.e. how many full-speed jobs it can
	// carry). Under processor sharing each in-flight job runs at
	// min(1, GPUCapacity/n).
	GPUCapacity float64
	// DecimWorkers is the decimation pool size; beyond it jobs queue FIFO.
	DecimWorkers int
	// DecimRate is each worker's service rate (demand ms retired per ms).
	DecimRate float64
}

// DefaultConfig returns an edge-GPU-shaped default: a server card worth
// roughly four phone-GPU inferences at full speed, with two decimation
// workers at double speed.
func DefaultConfig() Config {
	return Config{GPUCapacity: 4, DecimWorkers: 2, DecimRate: 2}
}

func (c Config) validate() error {
	if c.GPUCapacity <= 0 || math.IsNaN(c.GPUCapacity) || math.IsInf(c.GPUCapacity, 0) {
		return fmt.Errorf("contend: GPUCapacity %v must be finite and > 0", c.GPUCapacity)
	}
	if c.DecimWorkers < 1 {
		return fmt.Errorf("contend: DecimWorkers %d must be >= 1", c.DecimWorkers)
	}
	if c.DecimRate <= 0 || math.IsNaN(c.DecimRate) || math.IsInf(c.DecimRate, 0) {
		return fmt.Errorf("contend: DecimRate %v must be finite and > 0", c.DecimRate)
	}
	return nil
}

// SharedEdge is the deterministic shared-resource model. Not safe for
// concurrent use; one experiment cell owns one instance and drives it on
// virtual time.
type SharedEdge struct {
	cfg Config
	now float64
	seq int

	// gpu holds in-flight inference jobs in submission order; pool holds
	// decimation jobs (first DecimWorkers in service, rest queued FIFO).
	gpu  []*Job
	pool []*Job

	// served accumulates retired demand-milliseconds per resource, the
	// work-conservation ledger the property battery audits.
	servedGPU   float64
	servedDecim float64

	met edgeMetrics
}

// edgeMetrics is the instrument set: submission/completion counters per
// resource and queue-depth histograms sampled at every arrival. All
// instruments are nil (no-op) until SetObserver attaches a registry, and
// never feed back into completion times.
type edgeMetrics struct {
	inferSubmits *obs.Counter
	decimSubmits *obs.Counter
	completions  *obs.Counter
	gpuDepth     *obs.Histogram
	decimDepth   *obs.Histogram
	latency      *obs.Histogram
}

// queueDepthBuckets covers shared-edge queue depths from empty to a full
// 64-user fleet all in flight at once.
var queueDepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}

// New builds a shared edge with the given configuration.
func New(cfg Config) (*SharedEdge, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &SharedEdge{cfg: cfg}, nil
}

// SetObserver attaches a metrics registry; nil detaches (zero-overhead).
func (e *SharedEdge) SetObserver(reg *obs.Registry) {
	e.met.inferSubmits = reg.Counter("contend.inference_submits")
	e.met.decimSubmits = reg.Counter("contend.decimation_submits")
	e.met.completions = reg.Counter("contend.completions")
	e.met.gpuDepth = reg.Histogram("contend.gpu_queue_depth", queueDepthBuckets)
	e.met.decimDepth = reg.Histogram("contend.decim_queue_depth", queueDepthBuckets)
	e.met.latency = reg.Histogram("contend.latency_ms", obs.LatencyBucketsMS)
}

// Now returns the model's current virtual time.
func (e *SharedEdge) Now() float64 { return e.now }

// InFlight returns the number of incomplete jobs on both resources.
func (e *SharedEdge) InFlight() int { return len(e.gpu) + len(e.pool) }

// ServedGPU returns the total inference demand retired so far (ms at rate 1).
func (e *SharedEdge) ServedGPU() float64 { return e.servedGPU }

// ServedDecim returns the total decimation demand retired so far.
func (e *SharedEdge) ServedDecim() float64 { return e.servedDecim }

// Submit enters a job at virtual time t (>= Now; equal times are legal and
// serve in submission order). Zero-demand jobs complete instantly at t.
func (e *SharedEdge) Submit(kind JobKind, user int, t, demand float64) (*Job, error) {
	if t < e.now {
		return nil, fmt.Errorf("contend: submit at t=%v before now=%v", t, e.now)
	}
	if demand < 0 || math.IsNaN(demand) || math.IsInf(demand, 0) {
		return nil, fmt.Errorf("contend: demand %v must be finite and >= 0", demand)
	}
	e.AdvanceTo(t)
	j := &Job{ID: e.seq, User: user, Kind: kind, Arrival: t, Demand: demand, remaining: demand}
	e.seq++
	if demand == 0 {
		j.Done = true
		j.Finish = t
		e.met.completions.Inc()
		e.observeLatency(j)
		return j, nil
	}
	switch kind {
	case Inference:
		e.gpu = append(e.gpu, j)
		e.met.inferSubmits.Inc()
		e.met.gpuDepth.Observe(float64(len(e.gpu)))
	case Decimation:
		j.serving = len(e.pool) < e.cfg.DecimWorkers
		e.pool = append(e.pool, j)
		e.met.decimSubmits.Inc()
		e.met.decimDepth.Observe(float64(len(e.pool)))
	default:
		return nil, fmt.Errorf("contend: unknown job kind %d", kind)
	}
	return j, nil
}

// AdvanceTo advances virtual time to t, retiring work and completing jobs
// along the way. Completions that land at exactly the same instant resolve
// in submission order.
func (e *SharedEdge) AdvanceTo(t float64) {
	if math.IsNaN(t) || t <= e.now {
		return
	}
	for e.now < t {
		next, ripe := e.nextCompletion()
		if ripe == nil || next > t {
			e.accrue(t - e.now)
			e.now = t
			return
		}
		if next > e.now {
			e.accrue(next - e.now)
			e.now = next
		}
		// Force the event job to zero: accrual over exactly
		// remaining/rate can leave float residue, and progress must not
		// depend on epsilon luck. Identically-shaped ties hit zero by the
		// same arithmetic and complete in the same pass, in submission
		// order.
		ripe.remaining = 0
		e.completeRipe()
	}
}

// Drain advances until every in-flight job has completed.
func (e *SharedEdge) Drain() {
	for e.InFlight() > 0 {
		next, ripe := e.nextCompletion()
		if ripe == nil {
			return
		}
		if next > e.now {
			e.accrue(next - e.now)
			e.now = next
		}
		ripe.remaining = 0
		e.completeRipe()
	}
}

// gpuRate returns the per-job service rate on the GPU right now: processor
// sharing with each job capped at full speed, exactly soc's rule.
func (e *SharedEdge) gpuRate() float64 {
	n := len(e.gpu)
	if n == 0 {
		return 0
	}
	rate := e.cfg.GPUCapacity / float64(n)
	if rate > 1 {
		rate = 1
	}
	return rate
}

// nextCompletion returns the earliest absolute completion time among all
// in-flight jobs under current rates, and the job realizing it. The scan
// order is fixed (GPU in submission order, then the pool in submission
// order) and only strictly earlier times displace the incumbent, so the
// choice is deterministic; same-instant peers complete in the same
// completeRipe pass regardless of which realized the event.
func (e *SharedEdge) nextCompletion() (float64, *Job) {
	best := math.Inf(1)
	var ripe *Job
	if rate := e.gpuRate(); rate > 0 {
		for _, j := range e.gpu {
			if c := e.now + j.remaining/rate; c < best {
				best = c
				ripe = j
			}
		}
	}
	for i, j := range e.pool {
		if i >= e.cfg.DecimWorkers {
			break
		}
		if c := e.now + j.remaining/e.cfg.DecimRate; c < best {
			best = c
			ripe = j
		}
	}
	return best, ripe
}

// accrue retires dt milliseconds of service from every in-flight job at
// current rates. Rates are constant over the interval by construction: the
// caller never crosses a completion inside dt.
func (e *SharedEdge) accrue(dt float64) {
	if rate := e.gpuRate(); rate > 0 {
		for _, j := range e.gpu {
			step := rate * dt
			if step > j.remaining {
				step = j.remaining
			}
			j.remaining -= step
			e.servedGPU += step
		}
	}
	for i, j := range e.pool {
		if i >= e.cfg.DecimWorkers {
			break
		}
		step := e.cfg.DecimRate * dt
		if step > j.remaining {
			step = j.remaining
		}
		j.remaining -= step
		e.servedDecim += step
	}
}

// completeRipe finishes every job whose remaining demand has reached zero
// (within a relative epsilon of its total demand, absorbing float drift
// from rate recomputation), in submission order.
func (e *SharedEdge) completeRipe() {
	keepG := e.gpu[:0]
	for _, j := range e.gpu {
		if j.remaining <= ripeEps*j.Demand {
			e.finish(j)
		} else {
			keepG = append(keepG, j)
		}
	}
	e.gpu = keepG
	keepP := e.pool[:0]
	for _, j := range e.pool {
		if j.serving && j.remaining <= ripeEps*j.Demand {
			e.finish(j)
		} else {
			keepP = append(keepP, j)
		}
	}
	e.pool = keepP
	for i, j := range e.pool {
		j.serving = i < e.cfg.DecimWorkers
	}
}

// ripeEps is the relative completion tolerance: remaining demand below this
// fraction of the job's total is rounding residue, not real work.
const ripeEps = 1e-9

func (e *SharedEdge) finish(j *Job) {
	j.remaining = 0
	j.Done = true
	j.Finish = e.now
	e.met.completions.Inc()
	e.observeLatency(j)
}

func (e *SharedEdge) observeLatency(j *Job) {
	e.met.latency.Observe(j.Finish - j.Arrival)
}
