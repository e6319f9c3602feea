// Package loadgen drives a fleet of simulated MAR clients against a running
// hboedge server's multi-session endpoints (internal/edge/sessiond).
//
// Each client is one full paper-stack session: a seeded scenario build
// (device + object set + taskset), a fault-tolerant edge.Client (optionally
// behind a seeded faults.Transport), a server-side BO session driven through
// sessiond.Backend — each session op one single-frame POST to
// /session/stream — and a core.Session running the event-based activation
// policy over virtual time. Mid-run the user "walks away" from the placed
// objects — a scripted distance change that drifts the reward and forces a
// re-activation, so every client exercises the suggest/observe path more
// than once.
//
// Determinism contract: per-client seeds are pre-drawn from the parent seed
// in index order, so client i's seed never depends on how many workers run.
// With Jobs=1 the whole run — including every per-session reward trajectory
// — is bit-identical across repetitions; with Jobs>1 per-session
// trajectories stay deterministic (sessions share no state) while only the
// wall-clock interleaving varies.
package loadgen

import (
	"context"
	"fmt"
	"sync"

	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/render"
	"github.com/mar-hbo/hbo/internal/scenario"
	"github.com/mar-hbo/hbo/internal/sim"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// Config shapes one load run.
type Config struct {
	// BaseURL is the hboedge server to drive.
	BaseURL string
	// Sessions is the number of simulated clients.
	Sessions int
	// Seed roots every per-client seed; see the package determinism
	// contract.
	Seed uint64
	// Scenario is the Table II combination each client builds ("SC2-CF2"
	// when empty).
	Scenario string
	// DurationMS is each client's virtual session length (60 000 when
	// zero).
	DurationMS float64
	// Jobs is the number of clients running concurrently (1 when <= 0; use
	// 1 for bit-identical full-run output).
	Jobs int
	// InitSamples and Iterations override the paper's per-activation BO
	// budget (5 and 15) when positive; load runs default to a smaller 3+6
	// budget so a 256-session sweep stays fast.
	InitSamples int
	Iterations  int
	// MoveAtMS schedules the scripted user movement (half the duration when
	// zero; negative disables). MoveDistance is the new user-object
	// distance in meters (4.0 when zero).
	MoveAtMS     float64
	MoveDistance float64
	// Mobility, when set, replaces the single scripted move with a
	// continuous per-client walk: each client's user-object distance
	// follows its own seeded waypoint trajectory (see Mobility/LinkAt).
	// Nil keeps the legacy MoveAtMS behavior and every existing golden
	// trajectory byte-identical.
	Mobility *MobilityConfig
	// UseLOD routes quality manipulation through the server's per-session
	// mesh cache, with a local decimator as degradation fallback.
	UseLOD bool
	// Policy selects the server-side optimizer policy for every session
	// (see internal/bo/policies); empty keeps the GP-EI default.
	Policy string
	// Faults, when non-zero, wraps every client's transport in a seeded
	// fault injector. Every session op and mesh fetch is one HTTP request,
	// so the injector draws once per op and a seed replays the same faults.
	Faults faults.Plan
	// Client overrides the edge client tuning (timeouts, retries, breaker).
	// The jitter seed is always re-derived per client.
	Client *edge.ClientConfig
	// Observer receives client-side metrics (suggest round-trip latency,
	// retries, breaker transitions) from every client. Optional; instruments
	// are concurrency-safe.
	Observer *obs.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.Scenario == "" {
		cfg.Scenario = "SC2-CF2"
	}
	if cfg.DurationMS == 0 {
		cfg.DurationMS = 60_000
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	if cfg.InitSamples <= 0 {
		cfg.InitSamples = 3
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 6
	}
	if cfg.MoveAtMS == 0 {
		cfg.MoveAtMS = cfg.DurationMS / 2
	}
	if cfg.MoveDistance == 0 {
		cfg.MoveDistance = 4.0
	}
	return cfg
}

func (cfg Config) validate() error {
	if cfg.BaseURL == "" {
		return fmt.Errorf("loadgen: empty base URL")
	}
	if cfg.Sessions < 1 {
		return fmt.Errorf("loadgen: need at least one session, got %d", cfg.Sessions)
	}
	if cfg.DurationMS < 0 {
		return fmt.Errorf("loadgen: negative duration %v", cfg.DurationMS)
	}
	return nil
}

func faultsActive(p faults.Plan) bool {
	return p.DropRate > 0 || p.ServerErrorRate > 0 || p.TruncateRate > 0 ||
		p.CorruptRate > 0 || p.LatencyMeanMS > 0 || len(p.Flaps) > 0
}

// SessionResult is one client's outcome.
type SessionResult struct {
	// ID is the session identifier ("c0042").
	ID string `json:"id"`
	// Seed is the client's derived root seed.
	Seed uint64 `json:"seed"`
	// Err is the terminal failure, if any ("" on success). A failed client
	// keeps whatever trajectory it recorded before failing.
	Err string `json:"err,omitempty"`
	// Samples is the session's full reward trajectory (the per-session B_t
	// series).
	Samples []core.RewardSample `json:"samples"`
	// Activations counts HBO activations; DegradedWindows counts reward
	// windows measured on local fallback.
	Activations     int `json:"activations"`
	DegradedWindows int `json:"degraded_windows"`
	// Remote and Fallback count BO iterations proposed by the server versus
	// recovered locally after a remote failure.
	Remote   int `json:"remote_proposals"`
	Fallback int `json:"fallback_proposals"`
	// Reopens counts transparent re-admissions after server-side evictions;
	// Restores counts the opens the server satisfied from a durable snapshot
	// (always zero against a server without a session store).
	Reopens  int `json:"reopens"`
	Restores int `json:"restores"`
	// MeanReward and FinalReward summarize the trajectory.
	MeanReward  float64 `json:"mean_reward"`
	FinalReward float64 `json:"final_reward"`
}

// Report is one load run's aggregate outcome. Sessions is sorted by ID, so
// two runs with the same config and seed compare byte-for-byte.
type Report struct {
	Scenario         string          `json:"scenario"`
	Seed             uint64          `json:"seed"`
	Sessions         []SessionResult `json:"sessions"`
	Failures         int             `json:"failures"`
	TotalActivations int             `json:"total_activations"`
	TotalReopens     int             `json:"total_reopens"`
	TotalRestores    int             `json:"total_restores"`
	TotalDegraded    int             `json:"total_degraded_windows"`
	TotalRemote      int             `json:"total_remote_proposals"`
	TotalFallback    int             `json:"total_fallback_proposals"`
}

// Run executes the configured load against the server. The context bounds
// the whole run; cancellation marks unfinished clients failed rather than
// abandoning their partial results.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Pre-draw every client seed in index order: client i's stream is fixed
	// by (Seed, i) alone, never by worker scheduling.
	seeds := make([]uint64, cfg.Sessions)
	parent := sim.NewRNG(cfg.Seed)
	for i := range seeds {
		seeds[i] = parent.Uint64()
	}
	results := make([]SessionResult, cfg.Sessions)
	if cfg.Jobs == 1 {
		for i := range results {
			results[i] = runOne(ctx, cfg, i, seeds[i])
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i] = runOne(ctx, cfg, i, seeds[i])
				}
			}()
		}
		for i := range results {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	rep := &Report{Scenario: cfg.Scenario, Seed: cfg.Seed, Sessions: results}
	for i := range results {
		r := &results[i]
		if r.Err != "" {
			rep.Failures++
		}
		rep.TotalActivations += r.Activations
		rep.TotalReopens += r.Reopens
		rep.TotalRestores += r.Restores
		rep.TotalDegraded += r.DegradedWindows
		rep.TotalRemote += r.Remote
		rep.TotalFallback += r.Fallback
	}
	return rep, nil
}

// runOne executes a single client session end to end. Every error is folded
// into the result — one failed client must not sink the fleet.
func runOne(ctx context.Context, cfg Config, idx int, seed uint64) SessionResult {
	res := SessionResult{ID: fmt.Sprintf("c%04d", idx), Seed: seed}
	// Derive independent streams for each stochastic component so none of
	// them aliases another.
	crng := sim.NewRNG(seed)
	buildSeed := crng.Uint64()
	boSeed := crng.Uint64()
	sessSeed := crng.Uint64()
	faultSeed := crng.Uint64()
	jitterSeed := crng.Uint64()
	// Drawn after every pre-existing stream so enabling (or ignoring)
	// mobility never shifts the seeds above.
	mobSeed := crng.Uint64()

	spec, err := scenario.ByName(cfg.Scenario)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	built, err := spec.Build(buildSeed)
	if err != nil {
		res.Err = err.Error()
		return res
	}

	ccfg := edge.DefaultClientConfig()
	if cfg.Client != nil {
		ccfg = *cfg.Client
	}
	ccfg.JitterSeed = jitterSeed
	if faultsActive(cfg.Faults) {
		ccfg.Transport = faults.NewTransport(ccfg.Transport, faultSeed, cfg.Faults)
	}
	ec, err := edge.NewClientWithConfig(cfg.BaseURL, 0, ccfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if cfg.Observer != nil {
		ec.SetObserver(cfg.Observer)
	}

	hcfg := core.DefaultConfig()
	hcfg.InitSamples = cfg.InitSamples
	hcfg.Iterations = cfg.Iterations
	sc, err := sessiond.NewClient(ec, res.ID, tasks.NumResources, hcfg.RMin, boSeed, hcfg.InitSamples)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if cfg.Policy != "" {
		if err := sc.SetPolicy(cfg.Policy); err != nil {
			res.Err = err.Error()
			return res
		}
	}
	if cfg.Observer != nil {
		sc.SetObserver(cfg.Observer)
	}
	built.Runtime.SetBOBackend(sessiond.NewBackend(ctx, sc))
	if cfg.UseLOD {
		built.Runtime.SetLODProvider(sessiond.NewLOD(ctx, sc))
		built.Runtime.SetLocalFallback(render.NewLocalDecimator(built.Library))
	}

	session, err := core.NewSession(built.Runtime,
		core.SessionConfig{HBO: hcfg, Mode: core.EventBased}, sim.NewRNG(sessSeed))
	if err != nil {
		res.Err = err.Error()
		return res
	}

	var mob *Mobility
	if cfg.Mobility != nil {
		mob = NewMobility(mobSeed, *cfg.Mobility, cfg.DurationMS)
	}
	moved := false
	for built.System.Now() < cfg.DurationMS {
		if err := ctx.Err(); err != nil {
			res.Err = err.Error()
			break
		}
		if mob != nil {
			d := mob.DistanceAt(built.System.Now())
			for _, o := range built.Scene.Objects() {
				o.Distance = d
			}
			built.Runtime.SyncRenderLoad()
		} else if !moved && cfg.MoveAtMS > 0 && built.System.Now() >= cfg.MoveAtMS {
			for _, o := range built.Scene.Objects() {
				o.Distance = cfg.MoveDistance
			}
			built.Runtime.SyncRenderLoad()
			moved = true
		}
		if err := session.Step(); err != nil {
			res.Err = err.Error()
			break
		}
	}
	// Best-effort server-side teardown; the server would otherwise LRU the
	// session out eventually.
	_ = sc.CloseSession(ctx)

	res.Samples = session.Samples()
	res.Activations = len(session.Activations())
	res.DegradedWindows = session.DegradedWindows()
	res.Remote, res.Fallback = session.ProposalStats()
	res.Reopens = sc.Reopens()
	res.Restores = sc.Restores()
	if n := len(res.Samples); n > 0 {
		sum := 0.0
		for _, s := range res.Samples {
			sum += s.Reward
		}
		res.MeanReward = sum / float64(n)
		res.FinalReward = res.Samples[n-1].Reward
	}
	return res
}
