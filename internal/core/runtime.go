// Package core implements the paper's HBO framework itself: the runtime
// that binds the AR scene to the SoC simulator and measures the two
// controlled variables (average virtual-object quality Q_t of Eq. 2 and
// normalized AI latency ε_t of Eq. 4), Algorithm 1's optimization loop, the
// event-based activation policy of §IV-E, and the lookup-table extension
// sketched as future work in §VI.
package core

import (
	"fmt"

	"github.com/mar-hbo/hbo/internal/alloc"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/render"
	"github.com/mar-hbo/hbo/internal/soc"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// Runtime binds one MAR app: an AR scene rendered on the device plus a set
// of AI tasks running on the same SoC, with the offline profile needed to
// normalize latencies.
type Runtime struct {
	Sys     *soc.System
	Scene   *render.Scene
	Profile *soc.Profile
	// Taskset is the running AI taskset (M tasks).
	Taskset tasks.Set
	// lod, when set, supplies actual decimated geometry after each TD run
	// (Fig. 3's cache/server path); nil keeps triangle bookkeeping only.
	lod render.LODProvider
	// fallbackLOD, when set, takes over when lod is unavailable or failing
	// (the on-device decimator): the app keeps rendering at locally
	// decimated quality instead of stalling on a dead edge link.
	fallbackLOD render.LODProvider
	// boBackend, when set, proposes BO configurations remotely (§VI); on
	// error the activation transparently falls back to the local optimizer.
	boBackend BOBackend
	// activations numbers RunActivation calls, so the backend can scope
	// one server-side optimizer to each activation.
	activations int
	// degraded is sticky across windows: true from the moment a fallback
	// takes over until the primary provider serves successfully again.
	degraded       bool
	degradedEvents int

	// Observability: reg is kept so activations can hand it down to the BO
	// optimizer and emit timeline events; the individual instruments are
	// nil-safe no-ops when no registry is attached.
	reg               *obs.Registry
	metActivations    *obs.Counter
	metLookupHits     *obs.Counter
	metLookupMisses   *obs.Counter
	metLODPrimary     *obs.Counter
	metLODFallback    *obs.Counter
	metDegradedEnter  *obs.Counter
	metDegradedExit   *obs.Counter
	metWindows        *obs.Counter
	metWindowQuality  *obs.Histogram
	metWindowEpsilon  *obs.Histogram
	metDeadlineMisses *obs.Gauge
}

// epsilonBuckets covers the normalized-latency-inflation range: 0 is the
// profiled isolation latency, a few means heavy contention.
var epsilonBuckets = []float64{0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1, 1.5, 2, 3, 5}

// SetObserver attaches a metrics registry to the runtime (and, via
// RunActivation, to the optimizers it spawns). Metrics never influence
// control decisions: measurements, activations, and golden outputs are
// byte-identical with observability on or off.
func (rt *Runtime) SetObserver(reg *obs.Registry) {
	rt.reg = reg
	rt.metActivations = reg.Counter("core.activations")
	rt.metLookupHits = reg.Counter("core.lookup_hits")
	rt.metLookupMisses = reg.Counter("core.lookup_misses")
	rt.metLODPrimary = reg.Counter("core.lod_primary_ok")
	rt.metLODFallback = reg.Counter("core.lod_fallback")
	rt.metDegradedEnter = reg.Counter("core.degraded_enter")
	rt.metDegradedExit = reg.Counter("core.degraded_exit")
	rt.metWindows = reg.Counter("core.windows_measured")
	rt.metWindowQuality = reg.Histogram("core.window_quality", obs.RewardBuckets)
	rt.metWindowEpsilon = reg.Histogram("core.window_epsilon", epsilonBuckets)
	rt.metDeadlineMisses = reg.Gauge("core.deadline_miss_rate")
}

// Observer returns the attached registry (nil when observability is off).
func (rt *Runtime) Observer() *obs.Registry { return rt.reg }

// BOBackend proposes the next BO configuration from one activation's
// observation database — the §VI remote-BO step. activation numbers the
// runtime's RunActivation calls from 1: each activation is a fresh BO run over
// its own database (Algorithm 1), so a new number must not be proposed
// from an earlier activation's history. Every call carries the
// activation's whole history, so any proposal can be lost to the link
// without corrupting the session. sessiond.Backend implements it over the
// edge's session service, one server session per activation, shipping
// only the tail the server has not yet seen.
type BOBackend interface {
	BONextPoint(activation int, points [][]float64, costs []float64) ([]float64, error)
}

// NewRuntime registers every task of the set on its profiled best resource
// (the natural app-start state, before any optimization) and synchronizes
// the initial render load.
func NewRuntime(sys *soc.System, scene *render.Scene, prof *soc.Profile, set tasks.Set) (*Runtime, error) {
	rt := &Runtime{Sys: sys, Scene: scene, Profile: prof, Taskset: set}
	for _, task := range set.Tasks {
		best, ok := prof.Best[task.ID()]
		if !ok {
			return nil, fmt.Errorf("core: task %s missing from profile", task.ID())
		}
		if err := sys.AddTask(task, best); err != nil {
			return nil, err
		}
	}
	rt.SyncRenderLoad()
	return rt, nil
}

// TaskIDs returns the taskset's IDs in definition order.
func (rt *Runtime) TaskIDs() []string {
	ids := make([]string, len(rt.Taskset.Tasks))
	for i, task := range rt.Taskset.Tasks {
		ids[i] = task.ID()
	}
	return ids
}

// SetLODProvider attaches a level-of-detail source (the edge client or a
// local decimator); subsequent ApplyConfiguration calls fetch and attach the
// decimated geometry Algorithm 1 line 23 redraws.
func (rt *Runtime) SetLODProvider(p render.LODProvider) {
	rt.lod = p
}

// SetLocalFallback attaches the on-device decimator used when the primary
// LOD provider is unavailable (circuit open) or failing. With a fallback in
// place, edge outages degrade the session instead of erroring it.
func (rt *Runtime) SetLocalFallback(p render.LODProvider) {
	rt.fallbackLOD = p
}

// SetBOBackend attaches a remote BO proposer (the edge client).
// Activations ask it for post-init proposals and fall back to the local
// optimizer when it fails.
func (rt *Runtime) SetBOBackend(b BOBackend) {
	rt.boBackend = b
}

// Degraded reports whether the runtime is currently operating on fallback
// output (degraded mode): set when a fallback takes over, cleared when the
// primary provider serves successfully again (breaker recovery).
func (rt *Runtime) Degraded() bool { return rt.degraded }

// DegradedEvents counts entries into degraded mode (fault episodes, not
// windows — Session counts windows).
func (rt *Runtime) DegradedEvents() int { return rt.degradedEvents }

// SyncRenderLoad pushes the scene's current GPU rendering utilization into
// the SoC simulator. Call after any change to object triangles or distance.
func (rt *Runtime) SyncRenderLoad() {
	dev := rt.Sys.Device()
	rt.Sys.SetRenderUtil(dev.RenderUtilFor(rt.Scene.VisibleTriangles()))
}

// ApplyAllocation moves every task to its resource in the assignment.
func (rt *Runtime) ApplyAllocation(a alloc.Assignment) error {
	for id, r := range a {
		if err := rt.Sys.SetAllocation(id, r); err != nil {
			return err
		}
	}
	return nil
}

// ApplyConfiguration enforces one candidate configuration (c, x): translate
// proportions into a per-task assignment (Algorithm 1 lines 2–22), run TD to
// redistribute triangles (line 23), and refresh the render load.
func (rt *Runtime) ApplyConfiguration(c []float64, x float64) (alloc.Assignment, error) {
	counts, err := alloc.Counts(c, len(rt.Taskset.Tasks))
	if err != nil {
		return nil, err
	}
	assignment, err := alloc.Assign(counts, rt.Profile, rt.TaskIDs())
	if err != nil {
		return nil, err
	}
	if err := rt.ApplyAllocation(assignment); err != nil {
		return nil, err
	}
	if err := alloc.DistributeTriangles(rt.Scene.Objects(), x); err != nil {
		return nil, err
	}
	if rt.lod != nil {
		if err := rt.applyLOD(); err != nil {
			return nil, err
		}
	}
	rt.SyncRenderLoad()
	return assignment, nil
}

// applyLOD fetches decimated geometry through the primary provider,
// degrading to the local fallback when the primary is unavailable or
// failing — the paper's app keeps rendering (at locally decimated quality)
// rather than stalling on a dead edge link. Recovery is transparent: the
// next successful primary fetch clears degraded mode.
func (rt *Runtime) applyLOD() error {
	// Refetch geometry only when an object's ratio moved visibly.
	const minDelta = 0.02
	primaryReady := true
	if av, ok := rt.lod.(render.Availability); ok {
		primaryReady = av.Available()
	}
	if primaryReady || rt.fallbackLOD == nil {
		err := rt.Scene.ApplyLOD(rt.lod, minDelta)
		if err == nil {
			rt.metLODPrimary.Inc()
			if rt.degraded {
				rt.metDegradedExit.Inc()
				rt.emit(obs.Event{TimeMS: rt.Sys.Now(), Kind: "core.degraded.exit"})
			}
			rt.degraded = false
			return nil
		}
		if rt.fallbackLOD == nil {
			return err
		}
	}
	if err := rt.Scene.ApplyLOD(rt.fallbackLOD, minDelta); err != nil {
		return fmt.Errorf("core: local LOD fallback: %w", err)
	}
	rt.metLODFallback.Inc()
	if !rt.degraded {
		rt.degradedEvents++
		rt.metDegradedEnter.Inc()
		rt.emit(obs.Event{TimeMS: rt.Sys.Now(), Kind: "core.degraded.enter"})
	}
	rt.degraded = true
	return nil
}

// emit forwards an event to the attached registry (no-op when detached).
func (rt *Runtime) emit(ev obs.Event) { rt.reg.Emit(ev) }

// Measurement is one control-period observation of the system.
type Measurement struct {
	// Quality is Q_t (Eq. 2) under the fitted quality model.
	Quality float64
	// Epsilon is ε_t (Eq. 4): mean normalized latency inflation over τ_e.
	Epsilon float64
	// PerTaskLatency is the measured mean latency per task ID.
	PerTaskLatency map[string]float64
	// AveragePowerW is the platform's mean power over the window (energy
	// extension; the paper's quality model descends from the
	// energy-oriented eAR).
	AveragePowerW float64
	// FPS is the renderer's achieved frame rate under the window's load
	// (a screen metric the paper defers to future work).
	FPS float64
	// DeadlineMissRate is the fraction of inferences across all tasks whose
	// latency exceeded their issue period (stale perception results).
	DeadlineMissRate float64
	// Degraded marks windows measured while the runtime operated on
	// fallback output (edge unavailable) — the fault-tolerance layer's
	// degraded-mode accounting.
	Degraded bool
}

// Reward returns B_t = Q − w·ε (Eq. 3).
func (m Measurement) Reward(w float64) float64 { return m.Quality - w*m.Epsilon }

// Cost returns φ = −B_t (Eq. 5), the quantity BO minimizes.
func (m Measurement) Cost(w float64) float64 { return -m.Reward(w) }

// Measure runs the simulator for periodMS of virtual time and returns the
// window's measurement.
func (rt *Runtime) Measure(periodMS float64) (Measurement, error) {
	if periodMS <= 0 {
		return Measurement{}, fmt.Errorf("core: non-positive measurement period %v", periodMS)
	}
	rt.Sys.ResetWindow()
	rt.Sys.ResetEnergy()
	rt.Sys.RunFor(periodMS)
	stats := rt.Sys.WindowStats()

	dev := rt.Sys.Device()
	m := Measurement{
		Quality:        rt.Scene.AverageQuality(),
		PerTaskLatency: make(map[string]float64, len(stats)),
		AveragePowerW:  soc.AveragePowerW(rt.Sys.EnergyMJ(), periodMS),
		FPS:            dev.FPSFor(rt.Scene.VisibleTriangles()),
		Degraded:       rt.degraded,
	}
	sum := 0.0
	n := 0
	completions, misses := 0, 0
	for _, id := range rt.TaskIDs() {
		st, ok := stats[id]
		if !ok {
			return Measurement{}, fmt.Errorf("core: no window stats for task %s", id)
		}
		expected := rt.Profile.Expected[id]
		if expected <= 0 {
			return Measurement{}, fmt.Errorf("core: invalid expected latency for %s", id)
		}
		m.PerTaskLatency[id] = st.MeanLatencyMS
		completions += st.Count
		misses += st.DeadlineMisses
		slow := (st.MeanLatencyMS - expected) / expected
		if slow < 0 {
			// Noise can dip below the profiled isolation latency; the paper's
			// ε is an inflation measure, floor at zero.
			slow = 0
		}
		sum += slow
		n++
	}
	if n > 0 {
		m.Epsilon = sum / float64(n)
	}
	if completions > 0 {
		m.DeadlineMissRate = float64(misses) / float64(completions)
	}
	rt.metWindows.Inc()
	rt.metWindowQuality.Observe(m.Quality)
	rt.metWindowEpsilon.Observe(m.Epsilon)
	rt.metDeadlineMisses.Set(m.DeadlineMissRate)
	return m, nil
}
