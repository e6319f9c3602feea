package contend

import (
	"fmt"
	"math"
	"sort"

	"github.com/mar-hbo/hbo/internal/obs"
)

// Action is a scheduler verdict for one session in one slot.
type Action int

const (
	// ActionAdmit grants the session its full edge demand this slot.
	ActionAdmit Action = iota + 1
	// ActionDegrade admits the session at its degraded (quality-capped)
	// demand: the session still offloads, but fetches a coarser LOD and a
	// cheaper inference, so it costs the shared edge less.
	ActionDegrade
	// ActionDefer pushes the session to local execution this slot; it
	// consumes no shared-edge capacity and re-bids next slot with
	// accumulated starvation priority.
	ActionDefer
)

// String names the action for tables and traces.
func (a Action) String() string {
	switch a {
	case ActionAdmit:
		return "admit"
	case ActionDegrade:
		return "degrade"
	case ActionDefer:
		return "defer"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Request is one session's bid for the upcoming slot.
type Request struct {
	// User identifies the session (an index into the caller's fleet; also
	// the deterministic tie-break).
	User int
	// Demand is the edge service demand (ms at rate 1) the session wants
	// this slot at full quality.
	Demand float64
	// MinDemand is the demand after maximal acceptable local degradation
	// (the quality floor); Degrade grants exactly this.
	MinDemand float64
	// Future is the predicted per-slot demand over the scheduler's
	// look-ahead horizon (entry 0 = next slot). Shorter-than-horizon
	// forecasts are padded with their last value; empty means "assume the
	// current demand persists".
	Future []float64
}

// Decision is the scheduler's verdict for one request.
type Decision struct {
	Action Action
	// Grant is the edge demand admitted this slot (0 when deferred).
	Grant float64
}

// SchedulerConfig tunes the look-ahead scheduler.
type SchedulerConfig struct {
	// Capacity is the shared edge GPU capacity (demand ms retired per ms),
	// matching the SharedEdge it fronts.
	Capacity float64
	// SlotMS is the slot length in virtual milliseconds.
	SlotMS float64
	// TargetUtil is the utilization the scheduler plans to (0.9 keeps
	// headroom so admitted jobs finish inside their slot).
	TargetUtil float64
	// Horizon is how many future slots the look-ahead considers.
	Horizon int
	// MaxDefer is the starvation bound: a session deferred this many
	// consecutive slots is admitted (at least degraded) ahead of all
	// non-starved sessions.
	MaxDefer int
}

// DefaultSchedulerConfig returns defaults matched to DefaultConfig's edge:
// plan to 90% of a 4-demand/ms GPU over 100 ms slots, look 4 slots ahead,
// and never defer a session more than 2 slots in a row.
func DefaultSchedulerConfig() SchedulerConfig {
	return SchedulerConfig{Capacity: 4, SlotMS: 100, TargetUtil: 0.9, Horizon: 4, MaxDefer: 2}
}

func (c SchedulerConfig) validate() error {
	if c.Capacity <= 0 || math.IsNaN(c.Capacity) || math.IsInf(c.Capacity, 0) {
		return fmt.Errorf("contend: scheduler Capacity %v must be finite and > 0", c.Capacity)
	}
	if c.SlotMS <= 0 || math.IsNaN(c.SlotMS) || math.IsInf(c.SlotMS, 0) {
		return fmt.Errorf("contend: scheduler SlotMS %v must be finite and > 0", c.SlotMS)
	}
	if c.TargetUtil <= 0 || c.TargetUtil > 1 {
		return fmt.Errorf("contend: scheduler TargetUtil %v out of (0,1]", c.TargetUtil)
	}
	if c.Horizon < 1 {
		return fmt.Errorf("contend: scheduler Horizon %d must be >= 1", c.Horizon)
	}
	if c.MaxDefer < 1 {
		return fmt.Errorf("contend: scheduler MaxDefer %d must be >= 1", c.MaxDefer)
	}
	return nil
}

// Scheduler is the contention-aware cross-session admission planner: each
// slot it ranks sessions by service deficit (most starved first), then
// greedily fills the slot's capacity budget — full demand if it fits,
// degraded demand if only that fits, defer otherwise — with the budget
// tightened when the look-ahead predicts sustained overload, and a hard
// starvation bound that force-admits sessions deferred MaxDefer slots in a
// row. It sits beside sessiond's per-shard admission controller: that
// controller bounds a live queue reactively (reject on overflow), this one
// plans proactively from predicted per-session activity.
//
// Deterministic by construction: no RNG, no clock, stable sort with the
// user index as final tie-break. Not safe for concurrent use.
type Scheduler struct {
	cfg SchedulerConfig

	// credit is each user's cumulative granted demand *fraction* (grant
	// over bid, so 1 = fully served, 0 = deferred) minus the fleet mean
	// fraction: positive = over-served, negative = starved. Measuring the
	// deficit in fractions rather than demand-ms makes the scheduler
	// proportionally fair — a light and a heavy user deferred equally often
	// accumulate identical starvation, so priority rotates through the
	// fleet instead of chasing raw demand-ms.
	credit map[int]float64
	// deferred counts each user's consecutive deferrals.
	deferred map[int]int
	// forced counts starvation-bound force-admissions over the scheduler's
	// lifetime (the obs counter mirrors it when a registry is attached).
	forced int

	met schedMetrics
}

// schedMetrics counts verdicts and samples planned utilization; nil
// instruments (no registry) are no-ops and never affect planning.
type schedMetrics struct {
	admits   *obs.Counter
	degrades *obs.Counter
	defers   *obs.Counter
	forced   *obs.Counter
	planUtil *obs.Histogram
}

// planUtilBuckets covers planned slot utilization from idle to 2x over.
var planUtilBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1, 1.25, 1.5, 2}

// NewScheduler builds a scheduler.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Scheduler{
		cfg:      cfg,
		credit:   make(map[int]float64),
		deferred: make(map[int]int),
	}, nil
}

// SetObserver attaches a metrics registry; nil detaches.
func (s *Scheduler) SetObserver(reg *obs.Registry) {
	s.met.admits = reg.Counter("contend.sched_admits")
	s.met.degrades = reg.Counter("contend.sched_degrades")
	s.met.defers = reg.Counter("contend.sched_defers")
	s.met.forced = reg.Counter("contend.sched_forced_admits")
	s.met.planUtil = reg.Histogram("contend.sched_plan_util", planUtilBuckets)
}

// Credit returns the user's current service credit (negative = starved).
func (s *Scheduler) Credit(user int) float64 { return s.credit[user] }

// ForcedAdmits returns how many admissions the starvation bound forced.
func (s *Scheduler) ForcedAdmits() int { return s.forced }

// Plan decides the upcoming slot. decisions[i] answers reqs[i]. Every
// request gets exactly one verdict; the input slice is not retained.
func (s *Scheduler) Plan(reqs []Request) []Decision {
	decisions := make([]Decision, len(reqs))
	if len(reqs) == 0 {
		return decisions
	}
	budget := s.slotBudget(reqs)

	// Rank: starved-past-bound first (force-admit class), then ascending
	// credit, user index as the final tie-break. Stable order; input order
	// never leaks into the outcome because the ordering key is total.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := reqs[order[a]], reqs[order[b]]
		fa, fb := s.deferred[ra.User] >= s.cfg.MaxDefer, s.deferred[rb.User] >= s.cfg.MaxDefer
		if fa != fb {
			return fa
		}
		ca, cb := s.credit[ra.User], s.credit[rb.User]
		if math.Float64bits(ca) != math.Float64bits(cb) {
			return ca < cb
		}
		return ra.User < rb.User
	})

	used := 0.0
	for _, i := range order {
		r := reqs[i]
		forced := s.deferred[r.User] >= s.cfg.MaxDefer
		switch {
		case used+r.Demand <= budget:
			decisions[i] = Decision{Action: ActionAdmit, Grant: r.Demand}
			used += r.Demand
		case used+r.MinDemand <= budget || forced:
			// A starved session is admitted at its floor even past the
			// budget: bounded overshoot beats unbounded starvation.
			decisions[i] = Decision{Action: ActionDegrade, Grant: r.MinDemand}
			used += r.MinDemand
			if forced {
				s.forced++
				s.met.forced.Inc()
			}
		default:
			decisions[i] = Decision{Action: ActionDefer}
		}
	}

	// Settle accounting: credits move by granted fraction minus the
	// fleet's mean granted fraction (zero-sum, so credits never drift),
	// deferral streaks reset on any admission.
	fracs := make([]float64, len(reqs))
	meanFrac := 0.0
	for i, r := range reqs {
		if r.Demand > 0 {
			fracs[i] = decisions[i].Grant / r.Demand
		} else if decisions[i].Action != ActionDefer {
			fracs[i] = 1
		}
		meanFrac += fracs[i]
	}
	meanFrac /= float64(len(reqs))
	for i, r := range reqs {
		d := decisions[i]
		s.credit[r.User] += fracs[i] - meanFrac
		if d.Action == ActionDefer {
			s.deferred[r.User]++
			s.met.defers.Inc()
		} else {
			s.deferred[r.User] = 0
			if d.Action == ActionAdmit {
				s.met.admits.Inc()
			} else {
				s.met.degrades.Inc()
			}
		}
	}
	s.met.planUtil.Observe(used / (s.cfg.Capacity * s.cfg.SlotMS))
	return decisions
}

// slotBudget returns the edge demand the slot may admit: the target
// utilization of one slot's capacity, tightened proportionally when the
// look-ahead predicts sustained demand beyond capacity (admit less now so
// the backlog cannot build faster than it drains).
func (s *Scheduler) slotBudget(reqs []Request) float64 {
	base := s.cfg.Capacity * s.cfg.SlotMS * s.cfg.TargetUtil
	horizon := 0.0
	for slot := 0; slot < s.cfg.Horizon; slot++ {
		for _, r := range reqs {
			horizon += predictedDemand(r, slot)
		}
	}
	capacity := s.cfg.Capacity * s.cfg.SlotMS * float64(s.cfg.Horizon)
	if capacity <= 0 {
		return base
	}
	pressure := horizon / capacity
	if pressure > 1 {
		// Scale down toward a floor of half the base budget: under
		// predicted 2x overload the scheduler plans to ~45% utilization,
		// trading slot fill for bounded queues.
		scale := 1 / pressure
		if scale < 0.5 {
			scale = 0.5
		}
		base *= scale
	}
	return base
}

// predictedDemand reads a request's forecast for a future slot, padding
// short forecasts with their last entry and empty ones with Demand.
func predictedDemand(r Request, slot int) float64 {
	if len(r.Future) == 0 {
		return r.Demand
	}
	if slot >= len(r.Future) {
		return r.Future[len(r.Future)-1]
	}
	return r.Future[slot]
}
