package experiments

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/experiments/contend"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/loadgen"
	"github.com/mar-hbo/hbo/internal/sim"
)

// Multi-user scenario modes: every user count runs once under each.
const (
	// ModeIndependent is the paper's single-user HBO applied verbatim per
	// session: every user optimizes its own (allocation, quality) point and
	// offloads whatever it wants — the shared edge absorbs the sum under
	// processor sharing, so contention shows up only as latency.
	ModeIndependent = "independent"
	// ModeScheduler routes the same fleet through the contention-aware
	// look-ahead scheduler: each slot it admits, degrades, or defers each
	// session's offload bid before the shared edge sees it.
	ModeScheduler = "scheduler"
)

// MultiUserConfig shapes one shared-edge contention study.
type MultiUserConfig struct {
	// UserCounts are the fleet sizes swept ({4, 8, 16, 24} when empty).
	// The default shared edge saturates near 16 concurrent users, so the
	// sweep crosses from uncontended into overload.
	UserCounts []int
	// Slots is the virtual session length in scheduler slots (96 when <= 0).
	Slots int
	// SlotMS is the slot length in virtual milliseconds (100 when zero).
	SlotMS float64
	// WindowSlots is each user's HBO activation window: one suggest/observe
	// cycle per window (6 when <= 0).
	WindowSlots int
	// Policy selects every user's per-session optimizer from the registry
	// (the GP-EI default when empty).
	Policy string
	// Seed roots the study; both modes of a given user count share one
	// population seed, so they race identical fleets.
	Seed uint64
	// Jobs bounds cell parallelism; the result is byte-identical for every
	// value.
	Jobs int
	// Faults, when non-zero, injects deterministic per-user offload
	// failures: DropRate is the chance a slot's uplink drops and
	// ServerErrorRate the chance the edge rejects it — either way the user
	// falls back to degraded local execution for that slot. Other Plan
	// fields are transport-level and ignored in this virtual-time model.
	Faults faults.Plan
	// Edge sizes the shared edge (contend.DefaultConfig when zero) and
	// Sched the look-ahead scheduler (contend.DefaultSchedulerConfig when
	// zero); SlotMS and Capacity are kept coherent between them.
	Edge  contend.Config
	Sched contend.SchedulerConfig
}

func (c MultiUserConfig) withDefaults() MultiUserConfig {
	if len(c.UserCounts) == 0 {
		c.UserCounts = []int{4, 8, 16, 24}
	}
	if c.Slots <= 0 {
		c.Slots = 96
	}
	if c.SlotMS == 0 {
		c.SlotMS = 100
	}
	if c.WindowSlots <= 0 {
		c.WindowSlots = 6
	}
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
	if c.Edge == (contend.Config{}) {
		c.Edge = contend.DefaultConfig()
	}
	if c.Sched == (contend.SchedulerConfig{}) {
		c.Sched = contend.DefaultSchedulerConfig()
		c.Sched.Capacity = c.Edge.GPUCapacity
		c.Sched.SlotMS = c.SlotMS
	}
	return c
}

// Per-user workload and reward shaping. The numbers are calibrated so the
// default edge (capacity 4 demand-ms/ms over 100 ms slots = 400 demand-ms
// per slot) saturates between 16 and 24 users at typical learned qualities.
const (
	// muSlotWork is one user's full-quality service demand per slot
	// (demand-ms) at unit base load.
	muSlotWork = 60.0
	// muLocalSlowdown is the device-to-edge service ratio: local execution
	// retires demand-ms at 1/3 the edge's unit rate.
	muLocalSlowdown = 3.0
	// muMinDemandFrac is the degraded offload's share of the full bid (the
	// quality-floor fetch the scheduler may grant instead).
	muMinDemandFrac = 0.4
	// muDegradeQuality scales perceived quality when served degraded.
	muDegradeQuality = 0.6
	// muLocalQuality scales perceived quality on local fallback (defer or
	// fault): the device renders the coarse LOD it already has.
	muLocalQuality = 0.8
	// muPayloadKB is the per-slot transfer payload at q=1 (poses up, frames
	// and mesh patches down).
	muPayloadKB = 30.0
	// muMeshWork is the decimation service demand per unit of quality
	// change when a user re-targets its LOD at a window boundary.
	muMeshWork = 25.0
)

// MultiUserCell is one (user count, mode) outcome.
type MultiUserCell struct {
	Users int    `json:"users"`
	Mode  string `json:"mode"`
	// AggB is the fleet-mean reward per slot (the aggregate B_t series).
	AggB []float64 `json:"agg_b"`
	// PerUserMean is each user's mean per-slot reward, index = user.
	PerUserMean []float64 `json:"per_user_mean"`
	// PerUserSat is each user's satisfaction: realized reward over its own
	// uncontended ideal (sole tenant, fault-free, full quality), in (0, 1].
	// Normalizing per user follows Jain's original formulation — fairness
	// measures how evenly contention is borne, not how users' intrinsic
	// quality choices differ.
	PerUserSat []float64 `json:"per_user_sat"`
	// MeanAgg is the time-mean of AggB; Fairness is the Jain index over
	// PerUserSat.
	MeanAgg  float64 `json:"mean_agg"`
	Fairness float64 `json:"fairness"`
	// Verdict counts: independent mode admits everything, so its degrade /
	// defer / forced counts stay zero and drops count fault fallbacks only.
	Admits   int `json:"admits"`
	Degrades int `json:"degrades"`
	Defers   int `json:"defers"`
	Forced   int `json:"forced"`
	Drops    int `json:"drops"`
}

// MultiUserResult is a full contention study.
type MultiUserResult struct {
	UserCounts []int   `json:"user_counts"`
	Slots      int     `json:"slots"`
	SlotMS     float64 `json:"slot_ms"`
	Seed       uint64  `json:"seed"`
	Policy     string  `json:"policy"`
	// Cells appear user-count-major, independent before scheduler — a
	// deterministic order for any Jobs value.
	Cells []MultiUserCell `json:"cells"`
}

var _ fmt.Stringer = (*MultiUserResult)(nil)

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) over the values:
// 1 when all users fare equally, 1/n when one user takes everything. Values
// must be non-negative; an empty or all-zero vector scores zero.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// RunMultiUser sweeps fleet sizes across both admission modes on the shared
// edge. Both modes of each user count share one population seed (identical
// users, walks, optimizers, and fault draws), so the comparison isolates the
// scheduler. All randomness flows from cfg.Seed through sim.RNG; the result
// is byte-identical for every Jobs value.
func RunMultiUser(cfg MultiUserConfig) (*MultiUserResult, error) {
	cfg = cfg.withDefaults()
	for _, n := range cfg.UserCounts {
		if n < 1 {
			return nil, fmt.Errorf("experiments: multiuser: user count %d must be >= 1", n)
		}
	}
	if !policies.Valid(cfg.Policy) {
		return nil, fmt.Errorf("experiments: multiuser: unknown policy %q", cfg.Policy)
	}
	// One population seed per user count, pre-drawn in sweep order so cell
	// scheduling never shifts them; both modes reuse the same seed.
	popSeeds := make([]uint64, len(cfg.UserCounts))
	root := sim.NewRNG(cfg.Seed)
	for i := range popSeeds {
		popSeeds[i] = root.Uint64()
	}
	modes := []string{ModeIndependent, ModeScheduler}
	cells := make([]MultiUserCell, len(cfg.UserCounts)*len(modes))
	errs := make([]error, len(cells))
	forEach(cfg.Jobs, len(cells), func(i int) {
		nIdx, mIdx := i/len(modes), i%len(modes)
		cell, err := runMultiUserCell(cfg, cfg.UserCounts[nIdx], modes[mIdx], popSeeds[nIdx])
		if err != nil {
			errs[i] = fmt.Errorf("experiments: multiuser %d users/%s: %w",
				cfg.UserCounts[nIdx], modes[mIdx], err)
			return
		}
		cells[i] = cell
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return &MultiUserResult{
		UserCounts: cfg.UserCounts,
		Slots:      cfg.Slots,
		SlotMS:     cfg.SlotMS,
		Seed:       cfg.Seed,
		Policy:     displayPolicy(cfg.Policy),
		Cells:      cells,
	}, nil
}

// muUser is one simulated session's state.
type muUser struct {
	mob  *loadgen.Mobility
	frng *sim.RNG
	pol  bo.Policy
	// base scales the user's workload; point is the active (allocation,
	// quality) configuration, prevQ the previous window's quality (drives
	// decimation work on change).
	base  float64
	point []float64
	prevQ float64
	// windowCost accumulates the activation window's mean cost.
	windowCost  float64
	windowSlots int
	rewards     []float64
	// ideals holds the same slots' uncontended-ideal rewards: full quality,
	// sole tenant of the edge, no faults. The satisfaction ratio
	// Σrewards/Σideals isolates what contention (and the admission policy)
	// cost this user.
	ideals []float64
}

// q returns the user's requested quality ratio (the point's last coord).
func (u *muUser) q() float64 { return u.point[len(u.point)-1] }

// localShare returns the fraction of the user's AI work pinned to the
// device (the point's first allocation coordinate).
func (u *muUser) localShare() float64 { return u.point[0] }

// runMultiUserCell simulates one fleet for one mode. Everything advances in
// virtual time: per slot each user bids an offload demand shaped by its
// optimizer's current point and its wireless link, the mode decides what the
// shared edge sees, the edge drains under processor sharing, and per-slot
// rewards (quality benefit minus slot-normalized latency) feed each user's
// next activation window.
func runMultiUserCell(cfg MultiUserConfig, users int, mode string, popSeed uint64) (MultiUserCell, error) {
	cell := MultiUserCell{Users: users, Mode: mode}
	edge, err := contend.New(cfg.Edge)
	if err != nil {
		return cell, err
	}
	var sched *contend.Scheduler
	if mode == ModeScheduler {
		if sched, err = contend.NewScheduler(cfg.Sched); err != nil {
			return cell, err
		}
	}

	// Build the fleet. Per-user seeds are drawn in index order from the
	// population seed, so user i is the same person in both modes.
	prng := sim.NewRNG(popSeed)
	boCfg := bo.DefaultConfig()
	boCfg.InitSamples = 3
	boCfg.Candidates = 32
	boCfg.RefineSteps = 5
	dom := bo.Domain{N: 2, RMin: 0.3}
	fleet := make([]*muUser, users)
	for i := range fleet {
		mobSeed := prng.Uint64()
		polSeed := prng.Uint64()
		faultSeed := prng.Uint64()
		baseDraw := prng.Float64()
		pol, err := policies.New(cfg.Policy, dom, boCfg, sim.NewRNG(polSeed))
		if err != nil {
			return cell, err
		}
		fleet[i] = &muUser{
			mob:  loadgen.NewMobility(mobSeed, loadgen.MobilityConfig{}, float64(cfg.Slots)*cfg.SlotMS),
			frng: sim.NewRNG(faultSeed),
			pol:  pol,
			base: 0.6 + 1.2*baseDraw,
		}
	}

	cell.AggB = make([]float64, cfg.Slots)
	type bid struct {
		edgeWant float64 // full-quality offload demand (demand-ms)
		minWant  float64 // quality-floor offload demand
		localMS  float64 // device-side compute latency this slot
		transfer float64 // wireless transfer time (ms)
		qEff     float64 // perceived quality before admission verdicts
		decim    float64 // decimation demand on LOD re-target
		faulted  bool
	}
	bids := make([]bid, users)
	decided := make([]contend.Decision, users)
	jobs := make([]*contend.Job, users)
	decimJobs := make([]*contend.Job, users)

	for slot := 0; slot < cfg.Slots; slot++ {
		t := float64(slot) * cfg.SlotMS
		// Activation boundaries: observe the finished window, get the next
		// suggestion. Window 0 only suggests.
		if slot%cfg.WindowSlots == 0 {
			for _, u := range fleet {
				if u.point != nil {
					if err := u.pol.Observe(u.point, u.windowCost/float64(u.windowSlots)); err != nil {
						return cell, err
					}
					u.prevQ = u.q()
				}
				p, err := u.pol.Next()
				if err != nil {
					return cell, err
				}
				u.point = p
				u.windowCost, u.windowSlots = 0, 0
			}
		}

		// Phase 1: every user forms its slot bid. Fault draws happen here,
		// unconditionally and in user order, so both modes consume identical
		// randomness.
		for i, u := range fleet {
			link := loadgen.LinkAt(u.mob.DistanceAt(t))
			q := u.q()
			work := u.base * muSlotWork * q
			b := bid{
				edgeWant: (1 - u.localShare()) * work,
				localMS:  u.localShare() * work * muLocalSlowdown,
				transfer: link.TransferMS(muPayloadKB * q),
				qEff:     q,
			}
			b.minWant = muMinDemandFrac * b.edgeWant
			if slot%cfg.WindowSlots == 0 && u.prevQ != 0 {
				if dq := math.Abs(q - u.prevQ); dq > 0 {
					b.decim = muMeshWork * dq
				}
			}
			dropped := u.frng.Float64() < cfg.Faults.DropRate
			rejected := u.frng.Float64() < cfg.Faults.ServerErrorRate
			b.faulted = dropped || rejected
			bids[i] = b
		}

		// Phase 2: the mode decides what reaches the shared edge. A faulted
		// user never reaches it (its uplink dropped or the edge rejected it),
		// in either mode.
		if sched != nil {
			reqs := make([]contend.Request, 0, users)
			reqIdx := make([]int, 0, users)
			for i := range bids {
				if bids[i].faulted {
					continue
				}
				reqs = append(reqs, contend.Request{
					User:      i,
					Demand:    bids[i].edgeWant,
					MinDemand: bids[i].minWant,
				})
				reqIdx = append(reqIdx, i)
			}
			for i := range decided {
				decided[i] = contend.Decision{}
			}
			for k, d := range sched.Plan(reqs) {
				decided[reqIdx[k]] = d
			}
		}

		// Phase 3: submissions, in user order (the edge's deterministic
		// tie-break for equal arrival ticks).
		arrive := math.Max(t, edge.Now())
		for i := range bids {
			jobs[i], decimJobs[i] = nil, nil
			b := &bids[i]
			if b.faulted {
				cell.Drops++
				continue
			}
			grant := b.edgeWant
			if sched != nil {
				switch decided[i].Action {
				case contend.ActionAdmit:
					cell.Admits++
				case contend.ActionDegrade:
					grant = decided[i].Grant
					b.qEff *= muDegradeQuality
					cell.Degrades++
				default:
					cell.Defers++
					continue
				}
			} else {
				cell.Admits++
			}
			if jobs[i], err = edge.Submit(contend.Inference, i, arrive, grant); err != nil {
				return cell, err
			}
			if b.decim > 0 {
				if decimJobs[i], err = edge.Submit(contend.Decimation, i, arrive, b.decim); err != nil {
					return cell, err
				}
			}
		}
		edge.Drain()

		// Phase 4: realized latencies and rewards. Device and edge work run
		// concurrently, so an admitted slot's latency is the slower of the
		// two paths; latency is measured from the slot boundary, so backlog
		// carried past a slot's end shows up as queueing delay. The per-slot
		// reward is a bounded QoE ratio, qEff / (1 + latency/SlotMS):
		// positive by construction (so fairness over it is never degenerate)
		// and decreasing in both quality loss and lateness.
		for i, u := range fleet {
			b := &bids[i]
			var lat float64
			switch {
			case b.faulted, sched != nil && decided[i].Action != contend.ActionAdmit && decided[i].Action != contend.ActionDegrade:
				// Local fallback: the device absorbs the whole workload
				// serially and renders the coarse LOD it already has.
				lat = b.localMS + (b.edgeWant+b.decim)*muLocalSlowdown
				b.qEff = u.q() * muLocalQuality
			default:
				edgeLat := b.transfer + jobs[i].Finish - t
				if decimJobs[i] != nil && decimJobs[i].Finish-t > edgeLat {
					edgeLat = decimJobs[i].Finish - t
				}
				lat = math.Max(b.localMS, edgeLat)
			}
			reward := b.qEff / (1 + lat/cfg.SlotMS)
			// The uncontended ideal: same configuration, but sole tenant of
			// a fault-free edge (unit service rate, no queueing).
			idealLat := math.Max(b.localMS, b.transfer+b.edgeWant+b.decim)
			u.ideals = append(u.ideals, u.q()/(1+idealLat/cfg.SlotMS))
			u.rewards = append(u.rewards, reward)
			u.windowCost -= reward
			u.windowSlots++
			cell.AggB[slot] += reward
		}
		cell.AggB[slot] /= float64(users)
		cell.MeanAgg += cell.AggB[slot]
	}
	cell.MeanAgg /= float64(cfg.Slots)
	if sched != nil {
		cell.Forced = sched.ForcedAdmits()
	}

	cell.PerUserMean = make([]float64, users)
	cell.PerUserSat = make([]float64, users)
	for i, u := range fleet {
		var sum, ideal float64
		for s, r := range u.rewards {
			sum += r
			ideal += u.ideals[s]
		}
		cell.PerUserMean[i] = sum / float64(len(u.rewards))
		cell.PerUserSat[i] = sum / ideal
	}
	cell.Fairness = JainIndex(cell.PerUserSat)
	return cell, nil
}

// Cell returns the (users, mode) cell.
func (r *MultiUserResult) Cell(users int, mode string) (MultiUserCell, error) {
	for _, c := range r.Cells {
		if c.Users == users && c.Mode == mode {
			return c, nil
		}
	}
	return MultiUserCell{}, fmt.Errorf("experiments: multiuser: no cell for %d users/%s", users, mode)
}

// String renders the sweep: one row per user count with both modes'
// aggregate reward and fairness side by side.
func (r *MultiUserResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-user shared edge: %v users × {%s, %s}, %d slots × %.0f ms, policy %s, seed %d\n",
		r.UserCounts, ModeIndependent, ModeScheduler, r.Slots, r.SlotMS, r.Policy, r.Seed)
	rows := [][]string{{"Users", "Indep B", "Sched B", "Indep Jain", "Sched Jain", "Degrades", "Defers", "Drops"}}
	for _, n := range r.UserCounts {
		ind, err1 := r.Cell(n, ModeIndependent)
		sch, err2 := r.Cell(n, ModeScheduler)
		if err1 != nil || err2 != nil {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", ind.MeanAgg),
			fmt.Sprintf("%.3f", sch.MeanAgg),
			fmt.Sprintf("%.3f", ind.Fairness),
			fmt.Sprintf("%.3f", sch.Fairness),
			fmt.Sprintf("%d", sch.Degrades),
			fmt.Sprintf("%d", sch.Defers),
			fmt.Sprintf("%d", ind.Drops+sch.Drops),
		})
	}
	b.WriteString(table(rows))
	return b.String()
}

// multiUserTrajectoryFormat versions the WriteTrajectories dump; bump it on
// any layout change so stale goldens fail loudly instead of mis-diffing.
const multiUserTrajectoryFormat = "multiuser-trajectories-v1"

// WriteTrajectories dumps every cell's aggregate B_t series, per-user mean
// rewards, and fairness index as IEEE-754 hex bits — the same byte-exact
// regression format as the arena and loadgen goldens.
func (r *MultiUserResult) WriteTrajectories(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s seed=%016x slots=%d slot_ms=%016x policy=%s\n",
		multiUserTrajectoryFormat, r.Seed, r.Slots, math.Float64bits(r.SlotMS), r.Policy)
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(bw, "cell users=%d mode=%s fairness=%016x mean_agg=%016x admits=%d degrades=%d defers=%d drops=%d\n",
			c.Users, c.Mode, math.Float64bits(c.Fairness), math.Float64bits(c.MeanAgg),
			c.Admits, c.Degrades, c.Defers, c.Drops)
		for _, v := range c.AggB {
			fmt.Fprintf(bw, "%016x\n", math.Float64bits(v))
		}
		for u, v := range c.PerUserMean {
			fmt.Fprintf(bw, "user %016x %016x\n", math.Float64bits(v), math.Float64bits(c.PerUserSat[u]))
		}
	}
	return bw.Flush()
}

// CSV renders the sweep's summary metrics as replottable rows.
func (r *MultiUserResult) CSV() string {
	var b strings.Builder
	b.WriteString("users,mode,mean_agg_b,fairness,admits,degrades,defers,drops\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%d,%s,%.6g,%.6g,%d,%d,%d,%d\n",
			c.Users, c.Mode, c.MeanAgg, c.Fairness, c.Admits, c.Degrades, c.Defers, c.Drops)
	}
	return b.String()
}

// BenchRecords flattens the sweep into benchjson-compatible records, one per
// cell: MultiUser/<n>/<mode> with aggregate reward, fairness, and verdict
// counts. Record order matches Cells.
func (r *MultiUserResult) BenchRecords() []BenchRecord {
	var out []BenchRecord
	for _, c := range r.Cells {
		out = append(out, BenchRecord{
			Name:       fmt.Sprintf("MultiUser/%d/%s", c.Users, c.Mode),
			Iterations: int64(r.Slots),
			Extra: map[string]float64{
				"mean_agg_b": c.MeanAgg,
				"fairness":   c.Fairness,
				"degrades":   float64(c.Degrades),
				"defers":     float64(c.Defers),
				"drops":      float64(c.Drops),
			},
		})
	}
	return out
}

// RunMultiUserStudy is the Runner entry point: the default sweep at the
// given seed.
func RunMultiUserStudy(seed uint64) (*MultiUserResult, error) {
	return RunMultiUserStudyJobs(seed, 1)
}

// RunMultiUserStudyJobs is RunMultiUserStudy under a parallelism bound; the
// result is byte-identical for every jobs value.
func RunMultiUserStudyJobs(seed uint64, jobs int) (*MultiUserResult, error) {
	return RunMultiUser(MultiUserConfig{Seed: seed, Jobs: jobs})
}
