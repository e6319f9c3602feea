package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/mar-hbo/hbo/internal/alloc"
	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/loadgen"
	"github.com/mar-hbo/hbo/internal/render"
	"github.com/mar-hbo/hbo/internal/sim"
)

// Session parameters every generated session uses: the dimension and R^min
// of the edge example's /bo/next requests and the paper's Init=5. The
// server's suggest work depends on the dimension and the database size,
// never on the cost values.
const (
	resources   = 3
	rmin        = 0.1
	initSamples = 5
)

// workload is one traffic mix. A workload value holds its seeded script
// (immutable while driven) plus per-session client state that only the
// owning load goroutine touches.
type workload interface {
	clients() int
	durable() bool // FileStore with SnapshotEvery=1, as hboedge -store-dir runs
	stream() bool  // session calls over the binary stream transport
	primary() string
	// drive runs load goroutine g's share of the script.
	drive(g *gen)
	// check verifies every recorded output after the timed window; with tr
	// set, the policy replays it makes become bo replay spans.
	check(gens []*gen, tr *tracer) []failure
	// properties reports the workload's input properties; each share comes
	// with its base and repeats exactly for a seed.
	properties(gens []*gen) []property
	// session returns a session's ID and optimizer seed.
	session(sess int) (id string, seed uint64)
	// capacity is how many ops, calls and points load goroutine g will
	// record.
	capacity(g int) logSize
	// expect returns the service counters (obs names) the traced pass must
	// end with, given what the script sent.
	expect() map[string]uint64
}

// failure marks one op (by load goroutine and op index) whose output check
// failed.
type failure struct {
	gen, op int
	msg     string
}

// property is one line of the workload property report.
type property struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Base  int     `json:"base"`
	Unit  string  `json:"unit"`
}

// costFn is the closed-form cost a session's client reports for a point:
// a seeded quadratic bowl with a gentle ripple in the ratio coordinate.
type costFn struct{ w, t [resources + 1]float64 }

func newCostFn(rng *sim.RNG) costFn {
	var f costFn
	for i := range f.w {
		f.w[i] = 0.5 + rng.Float64()
		f.t[i] = rng.Float64()
	}
	return f
}

func (f costFn) at(p []float64) float64 {
	s := 1.0
	for i, v := range p {
		d := v - f.t[i]
		s += f.w[i] * d * d
	}
	return s + 0.05*math.Sin(7*p[len(p)-1])
}

// boSession is a generated BO session: its ID, optimizer seed and cost.
type boSession struct {
	id   string
	seed uint64
	cost costFn
}

func newBOSession(id string, rng *sim.RNG) boSession {
	return boSession{id: id, seed: rng.Uint64(), cost: newCostFn(rng)}
}

// ---- warm-bo --------------------------------------------------------------

// warmBO is one closed-loop client on the stream transport running whole BO
// sessions: Init=5, then 3 activations of 20 iterations, so the server's
// database grows 0..59 and every op's GP size is known. One op is one
// iteration: ObserveAt for the previous point's cost, then Suggest.
type warmBO struct {
	sessions    []boSession
	acts, iters int
}

func planWarmBO(seed uint64, sessions int) *warmBO {
	rng := sim.NewRNG(seed ^ 0x5761726d)
	w := &warmBO{acts: 3, iters: 20}
	for k := range sessions {
		w.sessions = append(w.sessions, newBOSession(fmt.Sprintf("wb-%d-%d", seed, k), rng))
	}
	return w
}

func (w *warmBO) clients() int                    { return 1 }
func (w *warmBO) durable() bool                   { return false }
func (w *warmBO) stream() bool                    { return true }
func (w *warmBO) primary() string                 { return "warm" }
func (w *warmBO) session(si int) (string, uint64) { return w.sessions[si].id, w.sessions[si].seed }

func (w *warmBO) capacity(int) logSize {
	n := w.acts * w.iters
	return logSize{ops: len(w.sessions) * n, calls: len(w.sessions) * (w.acts + 2*n + 1), points: len(w.sessions) * n}
}

// expect: every iteration suggests once and every point is observed.
func (w *warmBO) expect() map[string]uint64 {
	n := uint64(len(w.sessions) * w.acts * w.iters)
	return map[string]uint64{"sessiond.suggests": n, "sessiond.observes": n}
}

func (w *warmBO) drive(g *gen) {
	for si := range w.sessions {
		w.run(g, si)
	}
}

func (w *warmBO) run(g *gen, si int) {
	s := &w.sessions[si]
	sc, err := g.c.session(s.id, s.seed)
	if err != nil {
		g.abort("warm", err)
		return
	}
	prev := int32(-1)
	for act := range w.acts {
		if _, err := g.call(newCall(kOpen, si), s.id, openCall(sc)); err != nil {
			g.abort("warm", err)
			return
		}
		for it := range w.iters {
			i := act*w.iters + it
			kind := "warm"
			if i < initSamples {
				kind = "init"
			}
			g.begin(kind, i)
			var err error
			if i > 0 {
				_, err = g.call(observeRec(si, i-1, prev, s.cost.at(g.point(prev))), s.id, observeCall(sc))
			}
			if err == nil {
				var rec callRec
				rec, err = g.call(newCall(kSuggest, si), s.id, suggestCall(sc))
				prev = rec.pt
			}
			g.end(err)
			if err != nil {
				return
			}
		}
	}
	n := w.acts * w.iters
	if _, err := g.call(observeRec(si, n-1, prev, s.cost.at(g.point(prev))), s.id, observeCall(sc)); err != nil {
		g.abort("warm", err)
		return
	}
	if _, err := g.call(newCall(kClose, si), s.id, closeCall(sc)); err != nil {
		g.abort("warm", err)
	}
}

func (w *warmBO) check(gens []*gen, tr *tracer) []failure {
	var fails []failure
	for gi, g := range gens {
		bySess := callsBySession(g.calls)
		fails = append(fails, replayAll(g, bySess, w.session, tr)...)
		for si, calls := range bySess {
			opens := 0
			for _, c := range calls {
				if c.kind != kOpen || c.failed() {
					continue
				}
				// Activation k re-opens a live session holding every
				// observation shipped so far: one per iteration but the last.
				want := 0
				if opens > 0 {
					want = opens*w.iters - 1
				}
				if c.existing() != (opens > 0) || c.restored() || int(c.obs) != want {
					fails = append(fails, failure{gi, firstOpAfter(calls, c), fmt.Sprintf("session %d activation %d open: existing=%v restored=%v observations=%d, want existing=%v observations=%d", si, opens, c.existing(), c.restored(), c.obs, opens > 0, want)})
				}
				opens++
			}
		}
	}
	return fails
}

func (w *warmBO) properties(gens []*gen) []property {
	var init, warm int
	hist := map[int]int{}
	for _, g := range gens {
		for _, op := range g.ops {
			if op.err != nil && op.dur == 0 {
				continue
			}
			if op.kind == "init" {
				init++
				continue
			}
			warm++
			hist[op.n/10*10]++
		}
	}
	total := init + warm
	props := []property{
		{"init_op_share", ratio(init, total), total, "ratio"},
		{"warm_op_share", ratio(warm, total), total, "ratio"},
	}
	for lo := 0; lo < w.acts*w.iters; lo += 10 {
		props = append(props, property{fmt.Sprintf("gp_size_%02d_%02d_share", lo, lo+9), ratio(hist[lo], warm), warm, "ratio"})
	}
	return props
}

// ---- session-churn --------------------------------------------------------

// churnShards and churnPerShard fix the working set at 4x the default
// capacity (8 shards x 64 sessions) per round.
const (
	churnShards   = 8
	churnPerShard = 4 * 64
)

// churn is two closed-loop clients on the stream transport making short
// visits (Open, then 2x(Suggest, ObserveAt)) to a working set 4x the
// service's capacity, each ID twice per round in a seeded order, against a
// durable FileStore. Sessions never leave the BO init phase. Client c owns
// the IDs whose shard (FNV-1a mod 8, sessiond's placement) has parity c, so
// each shard sees one client's sequence and LRU evictions repeat exactly.
type churn struct {
	sessions []boSession
	order    [][]int // per client: session index of each visit
	visits   []int   // per session: visits made (owning client only)
}

func planChurn(seed uint64, rounds int) *churn {
	rng := sim.NewRNG(seed ^ 0x436875726e)
	w := &churn{order: make([][]int, 2)}
	for r := range rounds {
		var count [churnShards]int
		var mine [2][]int
		for k := 0; len(mine[0])+len(mine[1]) < churnShards*churnPerShard; k++ {
			id := fmt.Sprintf("sc-%d-%d-%d", seed, r, k)
			sh := shardOf(id)
			if count[sh] == churnPerShard {
				continue
			}
			count[sh]++
			mine[sh%2] = append(mine[sh%2], len(w.sessions))
			w.sessions = append(w.sessions, newBOSession(id, rng))
		}
		for c := range mine {
			visits := append(append([]int(nil), mine[c]...), mine[c]...)
			for i := len(visits) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				visits[i], visits[j] = visits[j], visits[i]
			}
			w.order[c] = append(w.order[c], visits...)
		}
	}
	w.visits = make([]int, len(w.sessions))
	return w
}

// shardOf reproduces sessiond's shard placement: FNV-1a of the ID modulo
// the default shard count.
func shardOf(id string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id)) // hash.Hash writes never fail
	return int(h.Sum32()) % churnShards
}

func (w *churn) clients() int                    { return 2 }
func (w *churn) durable() bool                   { return true }
func (w *churn) stream() bool                    { return true }
func (w *churn) primary() string                 { return "visit" }
func (w *churn) session(si int) (string, uint64) { return w.sessions[si].id, w.sessions[si].seed }

func (w *churn) capacity(g int) logSize {
	return logSize{ops: len(w.order[g]), calls: 5 * len(w.order[g]), points: 2 * len(w.order[g])}
}

// expect: every visit suggests twice and observes both points.
func (w *churn) expect() map[string]uint64 {
	n := uint64(2 * (len(w.order[0]) + len(w.order[1])))
	return map[string]uint64{"sessiond.suggests": n, "sessiond.observes": n}
}

func (w *churn) drive(g *gen) {
	for _, si := range w.order[g.idx] {
		w.visit(g, si)
	}
}

func (w *churn) visit(g *gen, si int) {
	s := &w.sessions[si]
	sc, err := g.c.session(s.id, s.seed)
	if err != nil {
		g.abort("visit", err)
		return
	}
	g.begin("visit", 0)
	defer func() { g.end(err) }()
	if _, err = g.call(newCall(kOpen, si), s.id, openCall(sc)); err != nil {
		return
	}
	n := 2 * w.visits[si]
	w.visits[si]++
	for j := range 2 {
		var rec callRec
		if rec, err = g.call(newCall(kSuggest, si), s.id, suggestCall(sc)); err != nil {
			return
		}
		if _, err = g.call(observeRec(si, n+j, rec.pt, s.cost.at(g.point(rec.pt))), s.id, observeCall(sc)); err != nil {
			return
		}
	}
}

func (w *churn) check(gens []*gen, tr *tracer) []failure {
	var fails []failure
	for gi, g := range gens {
		bySess := callsBySession(g.calls)
		fails = append(fails, replayAll(g, bySess, w.session, tr)...)
		for si, calls := range bySess {
			visit := 0
			for _, c := range calls {
				if c.kind != kOpen || c.failed() {
					continue
				}
				// A re-visit finds the session live or restores it; either
				// way it holds exactly the observations shipped before.
				want := 2 * visit
				ok := int(c.obs) == want && (visit == 0) == !(c.existing() || c.restored())
				if !ok {
					fails = append(fails, failure{gi, int(c.op), fmt.Sprintf("session %d visit %d open: existing=%v restored=%v observations=%d, want %d", si, visit, c.existing(), c.restored(), c.obs, want)})
				}
				visit++
			}
		}
	}
	return fails
}

func (w *churn) properties(gens []*gen) []property {
	var opens, evicts, restores, live int
	for _, g := range gens {
		for _, c := range g.calls {
			if c.kind != kOpen || c.failed() {
				continue
			}
			opens++
			evicts += b2i(c.evict >= 0)
			restores += b2i(c.restored())
			live += b2i(c.existing())
		}
	}
	return []property{
		{"open_evict_share", ratio(evicts, opens), opens, "ratio"},
		{"open_restore_share", ratio(restores, opens), opens, "ratio"},
		{"open_live_share", ratio(live, opens), opens, "ratio"},
	}
}

// ---- lod-fetch ------------------------------------------------------------

// lodRefreshes is how many LOD refreshes one session makes; lodLibrarySeed
// seeds the offline training of the scene's quality models, which is the
// app's and not the workload's.
const (
	lodRefreshes   = 20
	lodLibrarySeed = 1
)

// lodFetch is two closed-loop JSON clients refreshing the level of detail
// of Table II scenes through per-session mesh caches. One op is one LOD
// refresh: one Client.Decimate per object instance on the precise path
// sessiond.LOD uses. Each refresh's ratios come from the app's own path
// (core.Runtime.ApplyConfiguration): a GP-EI policy suggests the total
// triangle ratio, the user walks a loadgen.Mobility trajectory sampled once
// per control period, and alloc.DistributeTriangles splits the budget over
// the scene's objects. Each ratio is then put on the server's 2% grid. How
// many fetches hit the session's cache follows from that path; the property
// report states the share, and the traced pass checks the service saw it.
type lodFetch struct {
	sessions []lodSession
	cacheCap int
}

type lodSession struct {
	id        string
	instances []int16   // catalog index of each object instance, scene order
	steps     [][]int16 // per refresh, per instance
}

func planLOD(seed uint64, sessions int) (*lodFetch, error) {
	catalog := catalogSpecs()
	lib, err := render.NewLibrary(catalog, lodLibrarySeed)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed ^ 0x4c4f44)
	// Each client alternates SC1 and SC2 sessions. Within a scene the
	// optimum of the sessions' costs in the ratio coordinate is stratified
	// over [R^min, 1] in a seeded order, so the scene's mean ratio (which
	// sets decimation and payload cost) is about the same for every seed.
	sceneOf := func(k int) int { return (k / 2) % 2 }
	target := make([]float64, sessions)
	for sc := range 2 {
		var ks []int
		for k := range sessions {
			if sceneOf(k) == sc {
				ks = append(ks, k)
			}
		}
		strata := make([]int, len(ks))
		for i := range strata {
			strata[i] = i
		}
		for i := len(strata) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			strata[i], strata[j] = strata[j], strata[i]
		}
		jitter := rng.Float64()
		for i, k := range ks {
			target[k] = rmin + (1-rmin)*(float64(strata[i])+jitter)/float64(len(ks))
		}
	}
	period := core.DefaultConfig().PeriodMS
	w := &lodFetch{cacheCap: sessiond.DefaultConfig().MeshCacheCap}
	for k := range sessions {
		counts := render.SC1()
		if sceneOf(k) == 1 {
			counts = render.SC2()
		}
		scene := render.NewScene(lib)
		if err := scene.PlaceAll(counts, 1); err != nil {
			return nil, err
		}
		s := lodSession{id: fmt.Sprintf("lod-%d-%d", seed, k)}
		for _, o := range scene.Objects() {
			s.instances = append(s.instances, int16(catalogIndex(o.Spec.Name)))
		}
		cost := newCostFn(rng)
		cost.t[resources] = target[k]
		pol, err := newReplayPolicy(rng.Uint64())
		if err != nil {
			return nil, err
		}
		walk := loadgen.NewMobility(rng.Uint64(), loadgen.MobilityConfig{}, lodRefreshes*period)
		for r := range lodRefreshes {
			p, err := pol.Next()
			if err != nil {
				return nil, err
			}
			d := walk.DistanceAt(float64(r) * period)
			for _, o := range scene.Objects() {
				o.Distance = d
			}
			if err := alloc.DistributeTriangles(scene.Objects(), p[resources]); err != nil {
				return nil, err
			}
			steps := make([]int16, len(s.instances))
			for i, o := range scene.Objects() {
				steps[i] = int16(min(50, max(1, math.Round(o.Ratio()*50))))
			}
			s.steps = append(s.steps, steps)
			if err := pol.Observe(p, cost.at(p)); err != nil {
				return nil, err
			}
		}
		w.sessions = append(w.sessions, s)
	}
	return w, nil
}

func (w *lodFetch) clients() int                    { return 2 }
func (w *lodFetch) durable() bool                   { return false }
func (w *lodFetch) stream() bool                    { return false }
func (w *lodFetch) primary() string                 { return "refresh" }
func (w *lodFetch) session(si int) (string, uint64) { return w.sessions[si].id, uint64(si) }

func (w *lodFetch) capacity(g int) logSize {
	var n logSize
	for si := g; si < len(w.sessions); si += 2 {
		n.ops += lodRefreshes
		n.calls += 2 + lodRefreshes*len(w.sessions[si].instances)
	}
	return n
}

// expect: the service's mesh caches hit and miss exactly as the model of
// the script says.
func (w *lodFetch) expect() map[string]uint64 {
	m := w.model()
	return map[string]uint64{"sessiond.mesh_cache_hits": uint64(m.hits), "sessiond.mesh_cache_misses": uint64(m.misses)}
}

func (w *lodFetch) drive(g *gen) {
	for si := g.idx; si < len(w.sessions); si += 2 {
		w.run(g, si)
	}
}

func (w *lodFetch) run(g *gen, si int) {
	s := &w.sessions[si]
	sc, err := g.c.session(w.session(si))
	if err != nil {
		g.abort("refresh", err)
		return
	}
	if _, err := g.call(newCall(kOpen, si), s.id, openCall(sc)); err != nil {
		g.abort("refresh", err)
		return
	}
	for _, steps := range s.steps {
		g.begin("refresh", 0)
		var err error
		for inst, obj := range s.instances {
			c := newCall(kDecimate, si)
			c.obj, c.step = obj, steps[inst]
			if _, err = g.call(c, meshKeyString(obj, steps[inst]), decimateCall(sc)); err != nil {
				break
			}
		}
		g.end(err)
		if err != nil {
			return
		}
	}
	if _, err := g.call(newCall(kClose, si), s.id, closeCall(sc)); err != nil {
		g.abort("refresh", err)
	}
}

// meshKeyString names a fetch's mesh-cache key: asset and ratio step.
func meshKeyString(obj, step int16) string { return meshKey(catalogNames[obj], int(step)) }

func meshKey(name string, step int) string { return fmt.Sprintf("%s@%d", name, step) }

func (w *lodFetch) check(gens []*gen, _ *tracer) []failure {
	want, err := localTriangles(gens)
	var fails []failure
	for gi, g := range gens {
		for _, c := range g.calls {
			if c.kind != kDecimate || c.failed() {
				continue
			}
			key := meshKeyString(c.obj, c.step)
			if err != nil || int(c.tris) != want[key] {
				fails = append(fails, failure{gi, int(c.op), fmt.Sprintf("%s: %d triangles, local decimation gives %d (%v)", key, c.tris, want[key], err)})
			}
		}
	}
	return fails
}

// lodModel replays the script through a model of the per-session mesh
// cache (LRU of cacheCap entries keyed by asset and ratio step), in session
// index order.
type lodModel struct {
	lookups, hits    int
	sessionHitShares []float64
	misses, repeats  int // repeats: misses another, earlier session decimated
	stepSum          int
}

func (w *lodFetch) model() lodModel {
	var m lodModel
	decimated := map[string]bool{}
	for _, s := range w.sessions {
		var lru []string
		hits, lookups := 0, 0
		mine := map[string]bool{}
		for _, steps := range s.steps {
			for inst, obj := range s.instances {
				key := meshKeyString(obj, steps[inst])
				lookups++
				m.stepSum += int(steps[inst])
				if i := indexOf(lru, key); i >= 0 {
					hits++
					lru = append(append(lru[:i:i], lru[i+1:]...), key)
					continue
				}
				m.misses++
				if decimated[key] && !mine[key] {
					m.repeats++
				}
				mine[key] = true
				lru = append(lru, key)
				if len(lru) > w.cacheCap {
					lru = lru[1:]
				}
			}
		}
		for k := range mine {
			decimated[k] = true
		}
		m.lookups += lookups
		m.hits += hits
		m.sessionHitShares = append(m.sessionHitShares, ratio(hits, lookups))
	}
	return m
}

func (w *lodFetch) properties([]*gen) []property {
	m := w.model()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range m.sessionHitShares {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return []property{
		{"fetch_hit_share", ratio(m.hits, m.lookups), m.lookups, "ratio"},
		{"fetch_ratio_mean", ratio(m.stepSum, 50*m.lookups), m.lookups, "ratio"},
		{"session_hit_share_mean", mean(m.sessionHitShares), len(m.sessionHitShares), "ratio"},
		{"session_hit_share_min", lo, len(m.sessionHitShares), "ratio"},
		{"session_hit_share_max", hi, len(m.sessionHitShares), "ratio"},
		{"miss_seen_by_other_session_share", ratio(m.repeats, m.misses), m.misses, "ratio"},
	}
}

// ---- call helpers ---------------------------------------------------------

type callFn = func(context.Context, *gen, *callRec) error

func openCall(sc *sessiond.Client) callFn {
	return func(ctx context.Context, g *gen, r *callRec) error {
		resp, err := sc.Open(ctx)
		r.obs = int32(resp.Observations)
		if resp.Existing {
			r.flags |= fExisting
		}
		if resp.Restored {
			r.flags |= fRestored
		}
		if resp.Evicted != "" {
			r.evict = int32(len(g.evicted))
			g.evicted = append(g.evicted, resp.Evicted)
		}
		return err
	}
}

func suggestCall(sc *sessiond.Client) callFn {
	return func(ctx context.Context, g *gen, r *callRec) error {
		p, err := sc.Suggest(ctx)
		if err == nil {
			r.pt = g.keep(p)
		}
		return err
	}
}

func observeCall(sc *sessiond.Client) callFn {
	return func(ctx context.Context, g *gen, r *callRec) error {
		return sc.ObserveAt(ctx, int(r.index), g.point(r.pt), r.cost)
	}
}

func closeCall(sc *sessiond.Client) callFn {
	return func(ctx context.Context, _ *gen, _ *callRec) error { return sc.CloseSession(ctx) }
}

func decimateCall(sc *sessiond.Client) callFn {
	return func(ctx context.Context, _ *gen, r *callRec) error {
		m, err := sc.Decimate(ctx, catalogNames[r.obj], float64(r.step)/50, false)
		if err == nil {
			r.tris = int32(m.TriangleCount())
		}
		return err
	}
}

// callsBySession groups a load goroutine's calls by session, in call order.
func callsBySession(calls []callRec) map[int][]*callRec {
	by := map[int][]*callRec{}
	for i := range calls {
		si := int(calls[i].sess)
		by[si] = append(by[si], &calls[i])
	}
	return by
}

// firstOpAfter returns the op of the first call after c in its session, the
// op an untimed call's failure is charged to.
func firstOpAfter(calls []*callRec, c *callRec) int {
	for i, x := range calls {
		if x == c {
			for _, y := range calls[i:] {
				if y.op >= 0 {
					return int(y.op)
				}
			}
		}
	}
	return -1
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
