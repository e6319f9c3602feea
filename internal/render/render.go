// Package render models the AR side of a MAR app: the virtual objects on
// screen (with the paper's Table II asset catalog), their per-object
// decimation state and user distance, OpenGL-style backface culling, and the
// GPU load that rendering places on the SoC — the single channel through
// which AR work affects AI latency in the paper.
package render

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/quality"
	"github.com/mar-hbo/hbo/internal/sim"
)

// Shape selects the procedural generator standing in for an asset class.
type Shape int

// Shape kinds: organic/detailed (Blob), smooth curved (Sphere), ring-like
// (Torus), flat/architectural (Box).
const (
	ShapeBlob Shape = iota + 1
	ShapeSphere
	ShapeTorus
	ShapeBox
)

// ObjectSpec describes one catalog asset.
type ObjectSpec struct {
	// Name matches Table II ("apricot", "bike", ...).
	Name string
	// MaxTriangles is the full-quality triangle count from Table II.
	MaxTriangles int
	// Shape picks the procedural stand-in geometry.
	Shape Shape
	// ShapeSeed varies the geometry within a shape class.
	ShapeSeed uint64
	// Roughness controls surface detail for blob shapes.
	Roughness float64
	// DistExp is the object's true distance exponent for quality loss.
	DistExp float64
}

// geometryCap bounds the triangle count of the training geometry; the
// nominal Table II count still drives render load, but parameter training
// decimates real meshes and must stay tractable.
const geometryCap = 3000

// Geometry generates the spec's stand-in mesh.
func (s ObjectSpec) Geometry() (*mesh.Mesh, error) {
	n := s.MaxTriangles
	if n > geometryCap {
		n = geometryCap
	}
	if n < 64 {
		n = 64
	}
	switch s.Shape {
	case ShapeBlob:
		return mesh.Blob(n, s.ShapeSeed, s.Roughness)
	case ShapeSphere:
		return mesh.SphereWithTriangles(n)
	case ShapeTorus:
		r := int(math.Sqrt(float64(n) / 4))
		if r < 3 {
			r = 3
		}
		return mesh.Torus(0.35, 2*r, r)
	case ShapeBox:
		side := int(math.Ceil(math.Sqrt(float64(n) / 12)))
		if side < 1 {
			side = 1
		}
		return mesh.Box(side)
	default:
		return nil, fmt.Errorf("render: unknown shape %d for %s", s.Shape, s.Name)
	}
}

// SC1 returns the first Table II object set: high-triangle-count assets.
func SC1() []ObjectCount {
	return []ObjectCount{
		{Spec: ObjectSpec{Name: "apricot", MaxTriangles: 86016, Shape: ShapeBlob, ShapeSeed: 101, Roughness: 0.40, DistExp: 1.2}, Count: 1},
		{Spec: ObjectSpec{Name: "bike", MaxTriangles: 178552, Shape: ShapeBlob, ShapeSeed: 102, Roughness: 0.50, DistExp: 1.0}, Count: 1},
		{Spec: ObjectSpec{Name: "plane", MaxTriangles: 146803, Shape: ShapeBlob, ShapeSeed: 103, Roughness: 0.30, DistExp: 1.1}, Count: 4},
		{Spec: ObjectSpec{Name: "splane", MaxTriangles: 146803, Shape: ShapeSphere, ShapeSeed: 104, DistExp: 1.1}, Count: 1},
		{Spec: ObjectSpec{Name: "Cocacola", MaxTriangles: 94080, Shape: ShapeTorus, ShapeSeed: 105, DistExp: 1.3}, Count: 2},
	}
}

// SC2 returns the second Table II object set: lightweight assets.
func SC2() []ObjectCount {
	return []ObjectCount{
		{Spec: ObjectSpec{Name: "cabin", MaxTriangles: 2324, Shape: ShapeBox, ShapeSeed: 201, DistExp: 0.9}, Count: 1},
		{Spec: ObjectSpec{Name: "andy", MaxTriangles: 2304, Shape: ShapeBlob, ShapeSeed: 202, Roughness: 0.35, DistExp: 1.1}, Count: 2},
		{Spec: ObjectSpec{Name: "ATV", MaxTriangles: 4907, Shape: ShapeBlob, ShapeSeed: 203, Roughness: 0.45, DistExp: 1.0}, Count: 2},
		{Spec: ObjectSpec{Name: "hammer", MaxTriangles: 6250, Shape: ShapeTorus, ShapeSeed: 204, DistExp: 1.2}, Count: 2},
	}
}

// ObjectCount pairs a spec with an instance count, mirroring Table II rows.
type ObjectCount struct {
	Spec  ObjectSpec
	Count int
}

// Library holds the one-time offline training results for a set of specs:
// the ground-truth degradation laws (derived from real stand-in geometry)
// and the fitted Eq. 1 parameters each object ships with.
type Library struct {
	specs  map[string]ObjectSpec
	truths map[string]quality.Truth
	params map[string]quality.Params
}

// NewLibrary trains every spec: generate geometry, derive the ground-truth
// law from it (once per spec per process), collect simulated GMSD samples,
// and fit Eq. 1. Deterministic in seed.
func NewLibrary(specs []ObjectSpec, seed uint64) (*Library, error) {
	l := &Library{
		specs:  make(map[string]ObjectSpec, len(specs)),
		truths: make(map[string]quality.Truth, len(specs)),
		params: make(map[string]quality.Params, len(specs)),
	}
	rng := sim.NewRNG(seed)
	for _, s := range specs {
		if _, dup := l.specs[s.Name]; dup {
			return nil, fmt.Errorf("render: duplicate spec %q", s.Name)
		}
		if s.MaxTriangles <= 0 {
			return nil, fmt.Errorf("render: spec %q has non-positive triangle count", s.Name)
		}
		truth, err := specTruth(s)
		if err != nil {
			return nil, err
		}
		p, err := quality.Train(truth, rng.Split(), 0.04)
		if err != nil {
			return nil, fmt.Errorf("render: training %q: %w", s.Name, err)
		}
		l.specs[s.Name] = s
		l.truths[s.Name] = truth
		l.params[s.Name] = p
	}
	return l, nil
}

// truthMemo holds every spec's ground-truth law for the life of the
// process. A truth depends only on its spec, and deriving one decimates the
// spec's geometry twice, while the oracle builds a fresh library for every
// grid configuration it scores.
var truthMemo struct {
	sync.Mutex
	truths map[ObjectSpec]quality.Truth
}

// specTruth returns the spec's ground-truth law, derived from its geometry
// on the first call and memoized after. Concurrent first calls may both
// derive it; the derivation is deterministic, so either result is the one.
func specTruth(s ObjectSpec) (quality.Truth, error) {
	truthMemo.Lock()
	truth, ok := truthMemo.truths[s]
	truthMemo.Unlock()
	if ok {
		return truth, nil
	}
	g, err := s.Geometry()
	if err != nil {
		return quality.Truth{}, fmt.Errorf("render: geometry for %q: %w", s.Name, err)
	}
	truth, err = quality.TruthFromMesh(g, s.DistExp)
	if err != nil {
		return quality.Truth{}, fmt.Errorf("render: truth for %q: %w", s.Name, err)
	}
	truthMemo.Lock()
	if truthMemo.truths == nil {
		truthMemo.truths = make(map[ObjectSpec]quality.Truth)
	}
	truthMemo.truths[s] = truth
	truthMemo.Unlock()
	return truth, nil
}

// LibraryFor trains a library covering every spec in the counts list.
func LibraryFor(counts []ObjectCount, seed uint64) (*Library, error) {
	specs := make([]ObjectSpec, 0, len(counts))
	for _, c := range counts {
		specs = append(specs, c.Spec)
	}
	return NewLibrary(specs, seed)
}

// Params returns the trained Eq. 1 parameters for the named spec.
func (l *Library) Params(name string) (quality.Params, error) {
	p, ok := l.params[name]
	if !ok {
		return quality.Params{}, fmt.Errorf("render: no trained params for %q", name)
	}
	return p, nil
}

// Truth returns the ground-truth degradation law for the named spec.
func (l *Library) Truth(name string) (quality.Truth, error) {
	t, ok := l.truths[name]
	if !ok {
		return quality.Truth{}, fmt.Errorf("render: no truth for %q", name)
	}
	return t, nil
}

// Object is one placed virtual object with its current decimation state.
type Object struct {
	Spec     ObjectSpec
	Instance int
	Params   quality.Params
	Truth    quality.Truth
	// Triangles is the currently selected triangle count (TD output).
	Triangles int
	// Distance is the current user-object distance in meters.
	Distance float64
	// Geometry is the currently attached decimated mesh, fetched through an
	// LODProvider (nil until ApplyLOD runs); GeometryRatio is the ratio it
	// was fetched at.
	Geometry      *mesh.Mesh
	GeometryRatio float64
	// OutOfView marks an object currently outside the camera frustum (the
	// user turned away): it contributes no render load and no perceived
	// quality while hidden, but stays placed.
	OutOfView bool
}

// ID returns a stable identifier ("plane_3"; bare name for instance 1).
func (o *Object) ID() string {
	if o.Instance <= 1 {
		return o.Spec.Name
	}
	return fmt.Sprintf("%s_%d", o.Spec.Name, o.Instance)
}

// Ratio returns the object's decimation ratio R = selected/maximum.
func (o *Object) Ratio() float64 {
	return float64(o.Triangles) / float64(o.Spec.MaxTriangles)
}

// VisibleTriangles returns the triangle count surviving backface culling at
// the current distance. Up close the camera sees inside surfaces that
// culling would otherwise drop; far away roughly half the triangles face
// away (the paper's §IV-E observation that distance changes AI latency via
// culling).
func (o *Object) VisibleTriangles() float64 {
	if o.OutOfView {
		return 0
	}
	return float64(o.Triangles) * CullFraction(o.Distance)
}

// CullFraction is the fraction of triangles surviving backface culling at
// the given distance.
func CullFraction(dist float64) float64 {
	if dist < 1 {
		dist = 1
	}
	return 0.5 + 0.5/dist
}

// Scene is the set of on-screen virtual objects.
type Scene struct {
	lib     *Library
	objects []*Object
}

// NewScene returns an empty scene over the trained library.
func NewScene(lib *Library) *Scene {
	return &Scene{lib: lib}
}

// Place adds an instance of the named spec at full quality and the given
// distance, returning the new object.
func (s *Scene) Place(name string, instance int, distance float64) (*Object, error) {
	spec, ok := s.lib.specs[name]
	if !ok {
		return nil, fmt.Errorf("render: unknown object %q", name)
	}
	if distance <= 0 {
		return nil, fmt.Errorf("render: object %q placed at non-positive distance %v", name, distance)
	}
	o := &Object{
		Spec:      spec,
		Instance:  instance,
		Params:    s.lib.params[name],
		Truth:     s.lib.truths[name],
		Triangles: spec.MaxTriangles,
		Distance:  distance,
	}
	for _, e := range s.objects {
		if e.ID() == o.ID() {
			return nil, fmt.Errorf("render: object %s already placed", o.ID())
		}
	}
	s.objects = append(s.objects, o)
	return o, nil
}

// PlaceAll places every instance from the counts list at the given distance.
func (s *Scene) PlaceAll(counts []ObjectCount, distance float64) error {
	for _, c := range counts {
		for i := 1; i <= c.Count; i++ {
			if _, err := s.Place(c.Spec.Name, i, distance); err != nil {
				return err
			}
		}
	}
	return nil
}

// Objects returns the placed objects in placement order. The slice is
// shared; callers must not append.
func (s *Scene) Objects() []*Object { return s.objects }

// Len returns the number of placed objects (L in the paper).
func (s *Scene) Len() int { return len(s.objects) }

// Object finds a placed object by ID.
func (s *Scene) Object(id string) (*Object, error) {
	for _, o := range s.objects {
		if o.ID() == id {
			return o, nil
		}
	}
	return nil, fmt.Errorf("render: no object %s in scene", id)
}

// Remove deletes an object from the scene.
func (s *Scene) Remove(id string) error {
	for i, o := range s.objects {
		if o.ID() == id {
			s.objects = append(s.objects[:i], s.objects[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("render: no object %s in scene", id)
}

// TotalMaxTriangles returns T^max, the full-quality triangle total.
func (s *Scene) TotalMaxTriangles() int {
	sum := 0
	for _, o := range s.objects {
		sum += o.Spec.MaxTriangles
	}
	return sum
}

// TotalTriangles returns the currently selected triangle total.
func (s *Scene) TotalTriangles() int {
	sum := 0
	for _, o := range s.objects {
		sum += o.Triangles
	}
	return sum
}

// TotalRatio returns x, the current total triangle ratio.
func (s *Scene) TotalRatio() float64 {
	max := s.TotalMaxTriangles()
	if max == 0 {
		return 1
	}
	return float64(s.TotalTriangles()) / float64(max)
}

// VisibleTriangles returns the culled on-screen triangle count.
func (s *Scene) VisibleTriangles() float64 {
	sum := 0.0
	for _, o := range s.objects {
		sum += o.VisibleTriangles()
	}
	return sum
}

// RenderUtil converts visible triangles into GPU utilization for a device
// with the given per-megatriangle cost. Clamping to the device maximum
// happens in the SoC simulator.
func (s *Scene) RenderUtil(utilPerMTri float64) float64 {
	return utilPerMTri * s.VisibleTriangles() / 1e6
}

// QualityStates snapshots the Eq. 2 inputs for every on-screen object;
// out-of-view objects are not perceived and do not enter the average.
func (s *Scene) QualityStates() []quality.ObjectState {
	out := make([]quality.ObjectState, 0, len(s.objects))
	for _, o := range s.objects {
		if o.OutOfView {
			continue
		}
		out = append(out, quality.ObjectState{Params: o.Params, Ratio: o.Ratio(), Distance: o.Distance})
	}
	return out
}

// AverageQuality computes Eq. 2 over the scene using the *fitted* model —
// the quantity HBO optimizes.
func (s *Scene) AverageQuality() float64 {
	return quality.Average(s.QualityStates())
}

// TrueAverageQuality computes Eq. 2 using the ground-truth laws — the
// quantity the user study (Fig. 9) perceives. Out-of-view objects are not
// perceived.
func (s *Scene) TrueAverageQuality() float64 {
	sum := 0.0
	n := 0
	for _, o := range s.objects {
		if o.OutOfView {
			continue
		}
		sum += 1 - o.Truth.Error(o.Ratio(), o.Distance)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// SortedIDs returns object IDs in lexical order for stable output.
func (s *Scene) SortedIDs() []string {
	ids := make([]string, len(s.objects))
	for i, o := range s.objects {
		ids[i] = o.ID()
	}
	sort.Strings(ids)
	return ids
}
