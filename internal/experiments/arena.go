package experiments

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"sort"
	"strings"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/loadgen"
	"github.com/mar-hbo/hbo/internal/scenario"
	"github.com/mar-hbo/hbo/internal/sim"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// ArenaConfig shapes one optimizer tournament.
type ArenaConfig struct {
	// Scenarios names the Table II combinations every policy races on
	// (the Figure-7 robustness grid — SC1-CF2 and SC2-CF2 — when empty).
	Scenarios []string
	// Policies are the registry entrants (all of them when empty).
	Policies []string
	// Runs is the number of independent runs per (scenario, policy) cell
	// (6 when <= 0, matching Figure 7). Run r of every policy shares one
	// run seed, so entrants race from identical initial RNG states on
	// identically built systems.
	Runs int
	// InitSamples and Iterations set each run's evaluation budget (the
	// paper's 5+15 when <= 0).
	InitSamples int
	Iterations  int
	// Seed roots every run seed (runSeed = Seed + run*1000, Figure 7's
	// derivation).
	Seed uint64
	// Jobs bounds cell parallelism; the result is byte-identical for every
	// value.
	Jobs int
	// Oracle, when set, brute-forces each scenario (exhaustive allocation ×
	// ratio-grid sweep) and measures regret against the true optimum;
	// otherwise the baseline is the empirical minimum cost any entrant
	// observed on that scenario.
	Oracle bool
	// FaultBracket, when set, additionally races every entrant through a
	// seeded loadgen fault schedule (dropped requests and injected 500s
	// against a live sessiond server) and reports per-policy resilience.
	FaultBracket bool
	// FaultSessions is the bracket's fleet size per policy (4 when <= 0).
	FaultSessions int
	// MultiUserBracket, when set, additionally drives the multi-user
	// shared-edge contention scenario under the fault bracket's drop/error
	// plan and attaches its fairness sweep — the arena's view of how the
	// contention-aware scheduler holds up when the network misbehaves.
	MultiUserBracket bool
}

func (c ArenaConfig) withDefaults() ArenaConfig {
	if len(c.Scenarios) == 0 {
		c.Scenarios = []string{"SC1-CF2", "SC2-CF2"}
	}
	if len(c.Policies) == 0 {
		c.Policies = policies.Names()
	}
	if c.Runs <= 0 {
		c.Runs = 6
	}
	if c.InitSamples <= 0 {
		c.InitSamples = core.DefaultConfig().InitSamples
	}
	if c.Iterations <= 0 {
		c.Iterations = core.DefaultConfig().Iterations
	}
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
	if c.FaultSessions <= 0 {
		c.FaultSessions = 4
	}
	return c
}

func (c ArenaConfig) validate() error {
	for _, name := range c.Scenarios {
		if _, err := scenario.ByName(name); err != nil {
			return err
		}
	}
	for _, name := range c.Policies {
		if !policies.Valid(name) {
			return fmt.Errorf("experiments: arena: unknown policy %q", name)
		}
	}
	return nil
}

// ArenaTrajectory is one (scenario, policy, run) cell: the measured cost of
// every evaluation (the negated reward trajectory), the best-so-far curve,
// and the cumulative regret against the scenario baseline.
type ArenaTrajectory struct {
	Scenario string    `json:"scenario"`
	Policy   string    `json:"policy"`
	Run      int       `json:"run"`
	Costs    []float64 `json:"costs"`
	Best     []float64 `json:"best"`
	Regret   []float64 `json:"regret"`
}

// ArenaStanding is one entrant's final ranking row.
type ArenaStanding struct {
	Rank   int    `json:"rank"`
	Policy string `json:"policy"`
	// MeanFinalBest averages the final best-so-far cost over every
	// (scenario, run) cell — the primary ranking key (ascending, ties
	// broken by name).
	MeanFinalBest float64 `json:"mean_final_best"`
	// MeanFinalRegret averages the final cumulative regret.
	MeanFinalRegret float64 `json:"mean_final_regret"`
	// MeanOracleGap averages final-best minus the scenario baseline over
	// every cell: how far the entrant lands from the oracle (or empirical
	// minimum), in cost units. Zero means it matched the baseline in every
	// bracket; unlike MeanFinalBest it is comparable across scenario mixes
	// because each cell is measured against its own floor.
	MeanOracleGap float64 `json:"mean_oracle_gap"`
	// Wins counts (scenario, run) brackets this entrant won outright
	// (lowest final best; ties go to the lexicographically first name).
	Wins int `json:"wins"`
}

// ArenaFaultRow is one entrant's fault-bracket outcome.
type ArenaFaultRow struct {
	Policy string `json:"policy"`
	// Sessions and Failures count the fleet and its terminal failures.
	Sessions int `json:"sessions"`
	Failures int `json:"failures"`
	// MeanFinalReward averages the fleet's final window rewards.
	MeanFinalReward float64 `json:"mean_final_reward"`
	// Reopens counts transparent re-admissions after server-side evictions;
	// Fallback counts BO iterations recovered locally after remote failures.
	Reopens  int `json:"reopens"`
	Fallback int `json:"fallback"`
}

// ArenaResult is a full tournament outcome.
type ArenaResult struct {
	Scenarios   []string `json:"scenarios"`
	Policies    []string `json:"policies"`
	Runs        int      `json:"runs"`
	InitSamples int      `json:"init_samples"`
	Iterations  int      `json:"iterations"`
	Seed        uint64   `json:"seed"`
	// Oracle records whether Baselines came from the exhaustive sweep or
	// the empirical minimum.
	Oracle bool `json:"oracle"`
	// Baselines maps scenario name to its regret baseline cost.
	Baselines map[string]float64 `json:"baselines"`
	// Cells holds every trajectory, scenario-major, then policy, then run —
	// a deterministic order for any jobs value.
	Cells []ArenaTrajectory `json:"cells"`
	// Ranking is the final table, best entrant first.
	Ranking []ArenaStanding `json:"ranking"`
	// Faults is the optional fault-bracket board (nil unless requested).
	Faults []ArenaFaultRow `json:"faults,omitempty"`
	// MultiUser is the optional shared-edge contention sweep run under the
	// fault bracket's plan (nil unless requested).
	MultiUser *MultiUserResult `json:"multi_user,omitempty"`
}

var _ fmt.Stringer = (*ArenaResult)(nil)

// RunArena races every configured policy across the scenario grid and
// returns trajectories, cumulative-regret curves, and the final ranking.
// All randomness derives from ArenaConfig.Seed through sim.RNG, so the
// result is byte-identical for every Jobs value. The context bounds only
// the fault bracket's live client/server traffic; the simulation cells run
// on virtual time and finish regardless.
func RunArena(ctx context.Context, cfg ArenaConfig) (*ArenaResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	type cellJob struct {
		scenario string
		policy   string
		run      int
	}
	var todo []cellJob
	for _, sc := range cfg.Scenarios {
		for _, pol := range cfg.Policies {
			for run := 1; run <= cfg.Runs; run++ {
				todo = append(todo, cellJob{sc, pol, run})
			}
		}
	}
	cells := make([]ArenaTrajectory, len(todo))
	errs := make([]error, len(todo))
	forEach(cfg.Jobs, len(todo), func(i int) {
		j := todo[i]
		spec, err := scenario.ByName(j.scenario)
		if err != nil {
			errs[i] = err
			return
		}
		runSeed := cfg.Seed + uint64(j.run)*1000
		costs, best, err := runArenaCell(spec, j.policy, runSeed, cfg.InitSamples, cfg.Iterations)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: arena %s/%s run %d: %w", j.scenario, j.policy, j.run, err)
			return
		}
		cells[i] = ArenaTrajectory{
			Scenario: j.scenario, Policy: j.policy, Run: j.run,
			Costs: costs, Best: best,
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	res := &ArenaResult{
		Scenarios:   cfg.Scenarios,
		Policies:    cfg.Policies,
		Runs:        cfg.Runs,
		InitSamples: cfg.InitSamples,
		Iterations:  cfg.Iterations,
		Seed:        cfg.Seed,
		Oracle:      cfg.Oracle,
		Baselines:   make(map[string]float64, len(cfg.Scenarios)),
		Cells:       cells,
	}
	if err := res.fillBaselines(cfg); err != nil {
		return nil, err
	}
	res.fillRegret()
	res.rank()
	if cfg.FaultBracket {
		rows, err := runFaultBracket(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res.Faults = rows
	}
	if cfg.MultiUserBracket {
		mu, err := RunMultiUser(MultiUserConfig{
			UserCounts: []int{8, 16},
			Slots:      48,
			Seed:       cfg.Seed,
			Jobs:       cfg.Jobs,
			Faults:     arenaFaultPlan,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: arena multi-user bracket: %w", err)
		}
		res.MultiUser = mu
	}
	return res, nil
}

// arenaFaultPlan is the shared fault schedule both arena brackets inject:
// the live loadgen bracket applies it at the transport and the multi-user
// bracket reinterprets the same rates as deterministic per-slot offload
// failures.
var arenaFaultPlan = faults.Plan{DropRate: 0.05, ServerErrorRate: 0.05}

// runArenaCell runs one policy's full activation through core.RunPolicy on
// a freshly built system, with a registry entrant in place of the paper's
// optimizer. GP-EI through this path is bit-identical to
// core.RunActivation at the paper's budget.
func runArenaCell(spec scenario.Spec, policy string, runSeed uint64, init, iters int) (costs, best []float64, err error) {
	built, err := spec.Build(runSeed)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.InitSamples, cfg.Iterations = init, iters
	boCfg := bo.DefaultConfig()
	boCfg.InitSamples = init
	pol, err := policies.New(policy, bo.Domain{N: tasks.NumResources, RMin: cfg.RMin}, boCfg, sim.NewRNG(runSeed))
	if err != nil {
		return nil, nil, err
	}
	res, err := core.RunPolicy(built.Runtime, cfg, pol)
	if err != nil {
		return nil, nil, err
	}
	costs = make([]float64, len(res.Iterations))
	for i, it := range res.Iterations {
		costs[i] = it.Cost
	}
	return costs, res.BestCostTrajectory(), nil
}

// fillBaselines computes each scenario's regret baseline: the oracle's
// exhaustive optimum when requested, else the empirical minimum cost any
// entrant observed there.
func (r *ArenaResult) fillBaselines(cfg ArenaConfig) error {
	for _, name := range r.Scenarios {
		if cfg.Oracle {
			spec, err := scenario.ByName(name)
			if err != nil {
				return err
			}
			best, _, err := oracleSearch(spec, cfg.Seed, cfg.Jobs)
			if err != nil {
				return fmt.Errorf("experiments: arena oracle %s: %w", name, err)
			}
			r.Baselines[name] = best.Cost
			continue
		}
		base := math.Inf(1)
		for _, c := range r.Cells {
			if c.Scenario != name {
				continue
			}
			for _, v := range c.Costs {
				if v < base {
					base = v
				}
			}
		}
		r.Baselines[name] = base
	}
	return nil
}

// fillRegret turns each cell's cost series into a cumulative-regret curve
// against its scenario baseline.
func (r *ArenaResult) fillRegret() {
	for i := range r.Cells {
		c := &r.Cells[i]
		base := r.Baselines[c.Scenario]
		c.Regret = make([]float64, len(c.Costs))
		var cum float64
		for t, v := range c.Costs {
			cum += v - base
			c.Regret[t] = cum
		}
	}
}

// rank builds the final table: mean final best cost ascending, ties broken
// by policy name, with per-bracket win counts.
func (r *ArenaResult) rank() {
	type agg struct {
		finalBest   float64
		finalRegret float64
		oracleGap   float64
		cells       int
		wins        int
	}
	aggs := make(map[string]*agg, len(r.Policies))
	for _, p := range r.Policies {
		aggs[p] = &agg{}
	}
	for _, c := range r.Cells {
		a := aggs[c.Policy]
		a.finalBest += c.Best[len(c.Best)-1]
		a.finalRegret += c.Regret[len(c.Regret)-1]
		a.oracleGap += c.Best[len(c.Best)-1] - r.Baselines[c.Scenario]
		a.cells++
	}
	// Bracket wins: for every (scenario, run), the lowest final best wins,
	// ties to the lexicographically first policy name.
	for _, sc := range r.Scenarios {
		for run := 1; run <= r.Runs; run++ {
			winner := ""
			bestCost := math.Inf(1)
			for _, c := range r.Cells {
				if c.Scenario != sc || c.Run != run {
					continue
				}
				final := c.Best[len(c.Best)-1]
				tied := math.Float64bits(final) == math.Float64bits(bestCost)
				if final < bestCost || (tied && c.Policy < winner) {
					bestCost = final
					winner = c.Policy
				}
			}
			if winner != "" {
				aggs[winner].wins++
			}
		}
	}
	r.Ranking = r.Ranking[:0]
	for _, p := range r.Policies {
		a := aggs[p]
		n := float64(a.cells)
		if n == 0 {
			n = 1
		}
		r.Ranking = append(r.Ranking, ArenaStanding{
			Policy:          p,
			MeanFinalBest:   a.finalBest / n,
			MeanFinalRegret: a.finalRegret / n,
			MeanOracleGap:   a.oracleGap / n,
			Wins:            a.wins,
		})
	}
	sort.SliceStable(r.Ranking, func(i, j int) bool {
		a, b := r.Ranking[i].MeanFinalBest, r.Ranking[j].MeanFinalBest
		if math.Float64bits(a) != math.Float64bits(b) {
			return a < b
		}
		return r.Ranking[i].Policy < r.Ranking[j].Policy
	})
	for i := range r.Ranking {
		r.Ranking[i].Rank = i + 1
	}
}

// Standing returns a policy's ranking row.
func (r *ArenaResult) Standing(policy string) (ArenaStanding, error) {
	for _, s := range r.Ranking {
		if s.Policy == policy {
			return s, nil
		}
	}
	return ArenaStanding{}, fmt.Errorf("experiments: arena: no standing for policy %q", policy)
}

// runFaultBracket races every entrant's fleet through an identical seeded
// fault schedule against its own live sessiond server. Each bracket runs
// its sessions serially (loadgen Jobs=1) so per-policy reports are
// byte-identical; brackets themselves run under the arena's job bound.
func runFaultBracket(ctx context.Context, cfg ArenaConfig) ([]ArenaFaultRow, error) {
	rows := make([]ArenaFaultRow, len(cfg.Policies))
	errs := make([]error, len(cfg.Policies))
	forEach(cfg.Jobs, len(cfg.Policies), func(i int) {
		policy := cfg.Policies[i]
		svc, err := sessiond.New(sessiond.DefaultConfig(), nil)
		if err != nil {
			errs[i] = err
			return
		}
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		rep, err := loadgen.Run(ctx, loadgen.Config{
			BaseURL:    ts.URL,
			Sessions:   cfg.FaultSessions,
			Seed:       cfg.Seed,
			Jobs:       1,
			DurationMS: 20_000,
			Policy:     policy,
			Faults:     arenaFaultPlan,
		})
		if err != nil {
			errs[i] = fmt.Errorf("experiments: arena fault bracket %s: %w", policy, err)
			return
		}
		row := ArenaFaultRow{
			Policy:   policy,
			Sessions: len(rep.Sessions),
			Failures: rep.Failures,
			Reopens:  rep.TotalReopens,
			Fallback: rep.TotalFallback,
		}
		for _, s := range rep.Sessions {
			row.MeanFinalReward += s.FinalReward
		}
		if len(rep.Sessions) > 0 {
			row.MeanFinalReward /= float64(len(rep.Sessions))
		}
		rows[i] = row
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// BenchRecord is one benchjson-shaped arena metric (the same schema
// cmd/benchjson emits for `go test -bench` output), so arena artifacts can
// sit next to BENCH_*.json snapshots and flow through the same tooling.
// NsPerOp stays zero: arena records carry optimization quality, not wall
// clock, and wall clock would break jobs-invariant byte-identity.
type BenchRecord struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// BenchRecords flattens the tournament into benchjson-compatible records,
// one per (scenario, policy): Arena/<scenario>/<policy> with the cell's
// mean final best cost, its gap to the scenario baseline, mean final
// cumulative regret, and the entrant's global rank. Record order is
// deterministic (scenario-major, then the configured policy order).
func (r *ArenaResult) BenchRecords() []BenchRecord {
	rank := make(map[string]int, len(r.Ranking))
	for _, s := range r.Ranking {
		rank[s.Policy] = s.Rank
	}
	var out []BenchRecord
	for _, sc := range r.Scenarios {
		for _, p := range r.Policies {
			var finalBest, finalRegret float64
			var n int
			for _, c := range r.Cells {
				if c.Scenario != sc || c.Policy != p {
					continue
				}
				finalBest += c.Best[len(c.Best)-1]
				finalRegret += c.Regret[len(c.Regret)-1]
				n++
			}
			if n == 0 {
				continue
			}
			out = append(out, BenchRecord{
				Name:       "Arena/" + sc + "/" + p,
				Iterations: int64(n),
				Extra: map[string]float64{
					"final_best_cost":  finalBest / float64(n),
					"final_cum_regret": finalRegret / float64(n),
					"oracle_gap":       finalBest/float64(n) - r.Baselines[sc],
					"rank":             float64(rank[p]),
				},
			})
		}
	}
	return out
}

// String renders the ranking table, per-scenario baselines, and (when run)
// the fault bracket.
func (r *ArenaResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Optimizer arena: %d polic%s × %d scenario%s × %d runs (budget %d+%d, seed %d)\n",
		len(r.Policies), plural(len(r.Policies), "y", "ies"),
		len(r.Scenarios), plural(len(r.Scenarios), "", "s"),
		r.Runs, r.InitSamples, r.Iterations, r.Seed)
	base := "empirical minimum"
	if r.Oracle {
		base = "exhaustive oracle"
	}
	for _, sc := range r.Scenarios {
		fmt.Fprintf(&b, "  %s baseline (%s): %.3f\n", sc, base, r.Baselines[sc])
	}
	b.WriteByte('\n')
	rows := [][]string{{"Rank", "Policy", "Mean Final Cost", "Mean Oracle Gap", "Mean Cum Regret", "Wins"}}
	for _, s := range r.Ranking {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Rank),
			displayPolicy(s.Policy),
			fmt.Sprintf("%.3f", s.MeanFinalBest),
			fmt.Sprintf("%.3f", s.MeanOracleGap),
			fmt.Sprintf("%.2f", s.MeanFinalRegret),
			fmt.Sprintf("%d", s.Wins),
		})
	}
	b.WriteString(table(rows))
	if len(r.Faults) > 0 {
		b.WriteString("\nFault bracket (seeded drops + 500s, per-policy fleets)\n")
		frows := [][]string{{"Policy", "Sessions", "Failures", "Mean Final Reward", "Reopens", "Fallback"}}
		for _, f := range r.Faults {
			frows = append(frows, []string{
				displayPolicy(f.Policy),
				fmt.Sprintf("%d", f.Sessions),
				fmt.Sprintf("%d", f.Failures),
				fmt.Sprintf("%.3f", f.MeanFinalReward),
				fmt.Sprintf("%d", f.Reopens),
				fmt.Sprintf("%d", f.Fallback),
			})
		}
		b.WriteString(table(frows))
	}
	if r.MultiUser != nil {
		b.WriteString("\nMulti-user bracket (shared-edge contention under the fault plan)\n")
		b.WriteString(r.MultiUser.String())
	}
	return b.String()
}

func displayPolicy(name string) string {
	if policies.Canonical(name) == "" {
		return policies.NameGPEI
	}
	return name
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// arenaTrajectoryFormat versions the WriteTrajectories dump; bump it on any
// layout change so stale goldens fail loudly instead of mis-diffing.
const arenaTrajectoryFormat = "arena-trajectories-v1"

// WriteTrajectories dumps every cell's cost, best-so-far, and cumulative
// regret series as IEEE-754 hex bits — a byte-exact regression format (the
// same idiom as loadgen's trajectory goldens). Cells appear in their
// deterministic result order, baselines in scenario order, and the final
// ranking as a trailer, so one dump fences the whole tournament.
func (r *ArenaResult) WriteTrajectories(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s seed=%016x runs=%d budget=%d+%d oracle=%d\n",
		arenaTrajectoryFormat, r.Seed, r.Runs, r.InitSamples, r.Iterations, boolBit(r.Oracle))
	for _, sc := range r.Scenarios {
		fmt.Fprintf(bw, "baseline %s %016x\n", sc, math.Float64bits(r.Baselines[sc]))
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(bw, "cell %s %s run=%d evals=%d\n",
			c.Scenario, displayPolicy(c.Policy), c.Run, len(c.Costs))
		for t := range c.Costs {
			fmt.Fprintf(bw, "%016x %016x %016x\n",
				math.Float64bits(c.Costs[t]), math.Float64bits(c.Best[t]), math.Float64bits(c.Regret[t]))
		}
	}
	for _, s := range r.Ranking {
		fmt.Fprintf(bw, "rank %d %s %016x %016x wins=%d\n",
			s.Rank, displayPolicy(s.Policy),
			math.Float64bits(s.MeanFinalBest), math.Float64bits(s.MeanFinalRegret), s.Wins)
	}
	return bw.Flush()
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CSV renders every cell's cumulative-regret curve as replottable rows.
func (r *ArenaResult) CSV() string {
	var b strings.Builder
	b.WriteString("iteration,series,value\n")
	for _, c := range r.Cells {
		for i, v := range c.Regret {
			fmt.Fprintf(&b, "%d,%s-%s-run%d,%.6g\n", i+1, c.Scenario, c.Policy, c.Run, v)
		}
	}
	return b.String()
}
