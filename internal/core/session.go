package core

import (
	"fmt"
	"sort"

	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/sim"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// RewardSample is one monitor observation (the dots and boxes of Fig. 8).
type RewardSample struct {
	TimeMS float64
	Reward float64
	// InActivation marks samples produced while Bayesian iterations were
	// exploring (the boxed regions of Fig. 8a).
	InActivation bool
	// Degraded marks windows measured while the runtime ran on local
	// fallback output (edge link down).
	Degraded bool
}

// ActivationMark records one activation and its outcome.
type ActivationMark struct {
	TimeMS float64
	// EndMS is the virtual time when the activation finished enforcing its
	// solution; EndMS − TimeMS is the user-visible exploration span.
	EndMS float64
	// FromLookup is true when the solution was replayed from the lookup
	// table instead of running Bayesian iterations.
	FromLookup bool
	Result     *Result
}

// ActivationMode selects how a session decides to re-optimize.
type ActivationMode int

// Activation modes: the paper's event-based policy versus the periodic
// strawman it compares against in Fig. 8b.
const (
	EventBased ActivationMode = iota + 1
	Periodic
)

// SessionConfig configures a monitored app session.
type SessionConfig struct {
	HBO  Config
	Mode ActivationMode
	// PeriodicIntervalMS is the fixed re-optimization interval in Periodic
	// mode.
	PeriodicIntervalMS float64
	// UseLookup enables the §VI lookup-table extension in EventBased mode.
	UseLookup bool
	// InitialLookup seeds the lookup table with previously persisted
	// solutions (implies UseLookup).
	InitialLookup *LookupTable
}

// Session drives a MAR app over virtual time: it samples the reward every
// MonitorIntervalMS and runs HBO activations according to the policy, while
// the caller mutates the scene (object placements, user movement) between
// Step calls.
type Session struct {
	rt      *Runtime
	cfg     SessionConfig
	rng     *sim.RNG
	monitor *Monitor
	lookup  *LookupTable

	lastPeriodic    float64
	lastActivation  float64
	samples         []RewardSample
	activations     []ActivationMark
	degradedWindows int
	// recent holds the last few monitor rewards; drift is judged on their
	// mean so a single noisy window cannot trigger a full activation.
	recent []float64
}

// NewSession builds a session around an existing runtime.
func NewSession(rt *Runtime, cfg SessionConfig, rng *sim.RNG) (*Session, error) {
	if err := cfg.HBO.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode != EventBased && cfg.Mode != Periodic {
		return nil, fmt.Errorf("core: invalid activation mode %d", cfg.Mode)
	}
	if cfg.Mode == Periodic && cfg.PeriodicIntervalMS <= 0 {
		return nil, fmt.Errorf("core: periodic mode needs a positive interval")
	}
	mon, err := NewMonitor(cfg.HBO.IncreaseThreshold, cfg.HBO.DecreaseThreshold)
	if err != nil {
		return nil, err
	}
	s := &Session{rt: rt, cfg: cfg, rng: rng, monitor: mon}
	if cfg.InitialLookup != nil {
		s.lookup = cfg.InitialLookup
	} else if cfg.UseLookup {
		s.lookup = NewLookupTable()
	}
	return s, nil
}

// Runtime returns the underlying runtime so callers can mutate the scene
// between steps.
func (s *Session) Runtime() *Runtime { return s.rt }

// Samples returns the recorded reward series.
func (s *Session) Samples() []RewardSample { return s.samples }

// Activations returns the recorded activations.
func (s *Session) Activations() []ActivationMark { return s.activations }

// Lookup returns the lookup table (nil unless enabled).
func (s *Session) Lookup() *LookupTable { return s.lookup }

// DegradedWindows returns how many recorded reward windows were measured in
// degraded mode (runtime on local fallback because the edge was down).
func (s *Session) DegradedWindows() int { return s.degradedWindows }

// ProposalStats aggregates proposal provenance over every recorded
// activation: how many post-init BO iterations used a remote backend's
// suggestion versus the local optimizer after a remote failure. Both are
// zero when no backend was attached.
func (s *Session) ProposalStats() (remote, fallback int) {
	for _, a := range s.activations {
		if a.Result != nil {
			remote += a.Result.RemoteProposals
			fallback += a.Result.FallbackProposals
		}
	}
	return remote, fallback
}

// record appends one reward sample and maintains the degraded-window count.
func (s *Session) record(smp RewardSample) {
	s.samples = append(s.samples, smp)
	if smp.Degraded {
		s.degradedWindows++
	}
}

// TimelineEvent is one entry of the merged observability timeline: reward
// samples interleaved with activation boundaries and degraded-mode edges, in
// virtual-time order.
type TimelineEvent struct {
	TimeMS float64 `json:"t_ms"`
	// Kind is one of "sample", "activation.start", "activation.end",
	// "degraded.enter", "degraded.exit".
	Kind string `json:"kind"`
	// Value is the reward for samples and the enforced solution's reward for
	// activation ends (zero for lookup replays, whose reward arrives as the
	// in-activation sample at the same timestamp).
	Value float64 `json:"value,omitempty"`
	// Detail annotates the event: "in_activation" on samples taken during
	// exploration, "lookup" on activations replayed from the lookup table.
	Detail string `json:"detail,omitempty"`
}

// ObservedTimeline merges the recorded reward series with activation marks
// and degraded-mode transitions (derived from consecutive samples' Degraded
// flag) into one chronologically sorted trace. It is built purely from
// session state, so it works with or without an attached metrics registry.
func (s *Session) ObservedTimeline() []TimelineEvent {
	out := make([]TimelineEvent, 0, len(s.samples)+2*len(s.activations))
	degraded := false
	for _, smp := range s.samples {
		if smp.Degraded && !degraded {
			out = append(out, TimelineEvent{TimeMS: smp.TimeMS, Kind: "degraded.enter"})
		} else if !smp.Degraded && degraded {
			out = append(out, TimelineEvent{TimeMS: smp.TimeMS, Kind: "degraded.exit"})
		}
		degraded = smp.Degraded
		ev := TimelineEvent{TimeMS: smp.TimeMS, Kind: "sample", Value: smp.Reward}
		if smp.InActivation {
			ev.Detail = "in_activation"
		}
		out = append(out, ev)
	}
	for _, a := range s.activations {
		startEv := TimelineEvent{TimeMS: a.TimeMS, Kind: "activation.start"}
		endEv := TimelineEvent{TimeMS: a.EndMS, Kind: "activation.end"}
		if a.FromLookup {
			startEv.Detail = "lookup"
			endEv.Detail = "lookup"
		}
		if a.Result != nil {
			endEv.Value = -a.Result.Cost
		}
		out = append(out, startEv, endEv)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TimeMS < out[j].TimeMS })
	return out
}

// ExplorationTimeMS returns the total virtual time the session spent inside
// activations — the user-visible cost of re-optimizing that the §VI lookup
// table exists to amortize.
func (s *Session) ExplorationTimeMS() float64 {
	total := 0.0
	for _, a := range s.activations {
		total += a.EndMS - a.TimeMS
	}
	return total
}

// Step advances one monitor interval: measure the reward, record it, and
// activate if the policy calls for it.
func (s *Session) Step() error {
	m, err := s.rt.Measure(s.cfg.HBO.MonitorIntervalMS)
	if err != nil {
		return err
	}
	b := m.Reward(s.cfg.HBO.Weight)
	s.record(RewardSample{TimeMS: s.rt.Sys.Now(), Reward: b, Degraded: m.Degraded})
	const smoothing = 3
	s.recent = append(s.recent, b)
	if len(s.recent) > smoothing {
		s.recent = s.recent[len(s.recent)-smoothing:]
	}
	smoothed := 0.0
	for _, v := range s.recent {
		smoothed += v
	}
	smoothed /= float64(len(s.recent))

	if s.rt.Scene.Len() == 0 {
		return nil // nothing to optimize yet
	}
	switch s.cfg.Mode {
	case Periodic:
		if s.rt.Sys.Now()-s.lastPeriodic >= s.cfg.PeriodicIntervalMS {
			s.lastPeriodic = s.rt.Sys.Now()
			return s.activate()
		}
	case EventBased:
		// The first activation (no reference yet) fires immediately on the
		// raw sample; afterwards drift is judged on the smoothed reward,
		// and a cooldown bounds churn right after an activation.
		if !s.monitor.HasReference() {
			return s.activate()
		}
		inCooldown := s.rt.Sys.Now()-s.lastActivation < s.cfg.HBO.CooldownMS
		if !inCooldown && s.monitor.ShouldActivate(smoothed) {
			return s.activate()
		}
	}
	return nil
}

// RunFor advances the session by whole monitor intervals covering durationMS.
func (s *Session) RunFor(durationMS float64) error {
	end := s.rt.Sys.Now() + durationMS
	for s.rt.Sys.Now() < end {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// activate runs one HBO activation (or replays a remembered solution) and
// refreshes the monitor reference.
func (s *Session) activate() error {
	start := s.rt.Sys.Now()
	if s.lookup != nil {
		key := Key(s.rt)
		if e, ok := s.lookup.Find(key); ok {
			s.rt.metLookupHits.Inc()
			s.rt.emit(obs.Event{TimeMS: start, Kind: "core.lookup.hit", Detail: key.String()})
			if _, err := s.rt.ApplyConfiguration(e.Point[:tasks.NumResources], e.Point[tasks.NumResources]); err != nil {
				return err
			}
			m, err := s.rt.Measure(s.cfg.HBO.PeriodMS)
			if err != nil {
				return err
			}
			b := m.Reward(s.cfg.HBO.Weight)
			s.monitor.SetReference(b)
			s.recent = s.recent[:0]
			s.lastActivation = s.rt.Sys.Now()
			s.record(RewardSample{TimeMS: s.rt.Sys.Now(), Reward: b, InActivation: true, Degraded: m.Degraded})
			s.activations = append(s.activations, ActivationMark{TimeMS: start, EndMS: s.rt.Sys.Now(), FromLookup: true})
			return nil
		}
		s.rt.metLookupMisses.Inc()
		s.rt.emit(obs.Event{TimeMS: start, Kind: "core.lookup.miss", Detail: key.String()})
	}
	res, err := RunActivation(s.rt, s.cfg.HBO, s.rng)
	if err != nil {
		return err
	}
	for i, it := range res.Iterations {
		// Reconstruct per-iteration timestamps: iterations ran back to back
		// over PeriodMS windows.
		ts := start + float64(i+1)*s.cfg.HBO.PeriodMS
		s.record(RewardSample{
			TimeMS:       ts,
			Reward:       -it.Cost,
			InActivation: true,
			Degraded:     it.Degraded,
		})
	}
	// The winning iteration's cost can be optimistic (exploration noise
	// favours lucky windows). Re-measure the enforced configuration for the
	// reference so steady-state samples are compared against steady state,
	// not against the luckiest window of the run.
	m, err := s.rt.Measure(s.cfg.HBO.PeriodMS)
	if err != nil {
		return err
	}
	s.monitor.SetReference(m.Reward(s.cfg.HBO.Weight))
	s.recent = s.recent[:0]
	s.lastActivation = s.rt.Sys.Now()
	s.activations = append(s.activations, ActivationMark{TimeMS: start, EndMS: s.rt.Sys.Now(), Result: res})
	if s.lookup != nil {
		s.lookup.Store(Key(s.rt), LookupEntry{Point: res.Point})
	}
	return nil
}
