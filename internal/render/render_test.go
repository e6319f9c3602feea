package render

import (
	"math"
	"testing"

	"github.com/mar-hbo/hbo/internal/quality"
)

func sc1Library(t *testing.T) *Library {
	t.Helper()
	lib, err := LibraryFor(SC1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestSC1MatchesTableII(t *testing.T) {
	lib := sc1Library(t)
	scene := NewScene(lib)
	if err := scene.PlaceAll(SC1(), 1.5); err != nil {
		t.Fatal(err)
	}
	if scene.Len() != 9 {
		t.Fatalf("SC1 has %d objects, want 9", scene.Len())
	}
	want := 86016 + 178552 + 4*146803 + 146803 + 2*94080
	if got := scene.TotalMaxTriangles(); got != want {
		t.Fatalf("SC1 T^max = %d, want %d", got, want)
	}
	if r := scene.TotalRatio(); r != 1 {
		t.Fatalf("fresh scene ratio = %v, want 1", r)
	}
}

func TestSC2MatchesTableII(t *testing.T) {
	lib, err := LibraryFor(SC2(), 1)
	if err != nil {
		t.Fatal(err)
	}
	scene := NewScene(lib)
	if err := scene.PlaceAll(SC2(), 1.5); err != nil {
		t.Fatal(err)
	}
	if scene.Len() != 7 {
		t.Fatalf("SC2 has %d objects, want 7", scene.Len())
	}
	want := 2324 + 2*2304 + 2*4907 + 2*6250
	if got := scene.TotalMaxTriangles(); got != want {
		t.Fatalf("SC2 T^max = %d, want %d", got, want)
	}
}

func TestPlaceDuplicateRejected(t *testing.T) {
	lib := sc1Library(t)
	scene := NewScene(lib)
	if _, err := scene.Place("apricot", 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := scene.Place("apricot", 1, 2); err == nil {
		t.Fatal("duplicate placement accepted")
	}
	if _, err := scene.Place("ghost", 1, 1); err == nil {
		t.Fatal("unknown object accepted")
	}
	if _, err := scene.Place("bike", 1, 0); err == nil {
		t.Fatal("zero distance accepted")
	}
}

func TestObjectIDAndRatio(t *testing.T) {
	lib := sc1Library(t)
	scene := NewScene(lib)
	o1, err := scene.Place("plane", 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	o3, err := scene.Place("plane", 3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if o1.ID() != "plane" || o3.ID() != "plane_3" {
		t.Fatalf("IDs = %s, %s", o1.ID(), o3.ID())
	}
	o1.Triangles = o1.Spec.MaxTriangles / 2
	if math.Abs(o1.Ratio()-0.5) > 1e-4 {
		t.Fatalf("ratio = %v, want 0.5", o1.Ratio())
	}
}

func TestCullFraction(t *testing.T) {
	if f := CullFraction(1); f != 1 {
		t.Fatalf("cull at 1m = %v, want 1", f)
	}
	if f := CullFraction(0.3); f != 1 {
		t.Fatalf("cull below 1m = %v, want clamped to 1", f)
	}
	far := CullFraction(10)
	if far <= 0.5 || far >= CullFraction(2) {
		t.Fatalf("cull fraction should decrease toward 0.5 with distance, got %v", far)
	}
}

func TestVisibleTrianglesDecreaseWithDistance(t *testing.T) {
	lib := sc1Library(t)
	scene := NewScene(lib)
	o, err := scene.Place("bike", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	near := scene.VisibleTriangles()
	o.Distance = 5
	farVis := scene.VisibleTriangles()
	if farVis >= near {
		t.Fatalf("visible triangles %v -> %v, want decrease with distance", near, farVis)
	}
	if u := scene.RenderUtil(0.66); u <= 0 {
		t.Fatalf("render util = %v, want positive", u)
	}
}

func TestAverageQualityRespondsToRatio(t *testing.T) {
	lib := sc1Library(t)
	scene := NewScene(lib)
	if err := scene.PlaceAll(SC1(), 1.5); err != nil {
		t.Fatal(err)
	}
	full := scene.AverageQuality()
	if full < 0.9 {
		t.Fatalf("full quality = %v, want >= 0.9 (no decimation)", full)
	}
	for _, o := range scene.Objects() {
		o.Triangles = o.Spec.MaxTriangles / 4
	}
	reduced := scene.AverageQuality()
	if reduced >= full {
		t.Fatalf("quality at 25%% triangles (%v) should be below full (%v)", reduced, full)
	}
	trueQ := scene.TrueAverageQuality()
	if math.Abs(trueQ-reduced) > 0.2 {
		t.Fatalf("true quality %v far from fitted %v", trueQ, reduced)
	}
}

func TestRemoveObject(t *testing.T) {
	lib := sc1Library(t)
	scene := NewScene(lib)
	if _, err := scene.Place("apricot", 1, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := scene.Remove("apricot"); err != nil {
		t.Fatal(err)
	}
	if scene.Len() != 0 {
		t.Fatal("scene not empty after removal")
	}
	if err := scene.Remove("apricot"); err == nil {
		t.Fatal("double removal succeeded")
	}
}

func TestLibraryRejectsBadSpecs(t *testing.T) {
	_, err := NewLibrary([]ObjectSpec{
		{Name: "a", MaxTriangles: 100, Shape: ShapeSphere},
		{Name: "a", MaxTriangles: 100, Shape: ShapeSphere},
	}, 1)
	if err == nil {
		t.Fatal("duplicate spec accepted")
	}
	_, err = NewLibrary([]ObjectSpec{{Name: "z", MaxTriangles: 0, Shape: ShapeSphere}}, 1)
	if err == nil {
		t.Fatal("zero triangles accepted")
	}
}

func TestLibraryDeterministic(t *testing.T) {
	l1, err := LibraryFor(SC2(), 9)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := LibraryFor(SC2(), 9)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := l1.Params("cabin")
	p2, _ := l2.Params("cabin")
	if p1 != p2 {
		t.Fatalf("library training not deterministic: %+v vs %+v", p1, p2)
	}
}

func TestGeometryShapes(t *testing.T) {
	for _, spec := range []ObjectSpec{
		{Name: "b", MaxTriangles: 500, Shape: ShapeBlob, Roughness: 0.3},
		{Name: "s", MaxTriangles: 500, Shape: ShapeSphere},
		{Name: "t", MaxTriangles: 500, Shape: ShapeTorus},
		{Name: "x", MaxTriangles: 500, Shape: ShapeBox},
	} {
		g, err := spec.Geometry()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if g.TriangleCount() < 100 {
			t.Fatalf("%s geometry too small: %d", spec.Name, g.TriangleCount())
		}
	}
	if _, err := (ObjectSpec{Name: "bad", MaxTriangles: 100}).Geometry(); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

func TestApplyLODLocal(t *testing.T) {
	lib, err := LibraryFor(SC2(), 1)
	if err != nil {
		t.Fatal(err)
	}
	scene := NewScene(lib)
	if err := scene.PlaceAll(SC2(), 1.5); err != nil {
		t.Fatal(err)
	}
	for _, o := range scene.Objects() {
		o.Triangles = o.Spec.MaxTriangles / 2
	}
	dec := NewLocalDecimator(lib)
	if err := scene.ApplyLOD(dec, 0.02); err != nil {
		t.Fatal(err)
	}
	for _, o := range scene.Objects() {
		if o.Geometry == nil {
			t.Fatalf("object %s has no geometry after ApplyLOD", o.ID())
		}
		if err := o.Geometry.Validate(); err != nil {
			t.Fatalf("object %s: %v", o.ID(), err)
		}
		// The attached geometry reflects the requested ratio of the
		// stand-in mesh (capped geometry, so compare ratios not counts).
		full, err := o.Spec.Geometry()
		if err != nil {
			t.Fatal(err)
		}
		got := float64(o.Geometry.TriangleCount()) / float64(full.TriangleCount())
		if math.Abs(got-0.5) > 0.15 {
			t.Errorf("object %s geometry at ratio %.2f, want ~0.5", o.ID(), got)
		}
		if math.Abs(o.GeometryRatio-o.Ratio()) > 1e-9 {
			t.Errorf("object %s GeometryRatio %.3f != Ratio %.3f", o.ID(), o.GeometryRatio, o.Ratio())
		}
	}
	// A tiny ratio change below the threshold keeps the old geometry.
	obj := scene.Objects()[0]
	before := obj.Geometry
	obj.Triangles += 1
	if err := scene.ApplyLOD(dec, 0.02); err != nil {
		t.Fatal(err)
	}
	if obj.Geometry != before {
		t.Error("sub-threshold ratio change refetched geometry")
	}
	// A large change refetches.
	obj.Triangles = obj.Spec.MaxTriangles / 10
	if err := scene.ApplyLOD(dec, 0.02); err != nil {
		t.Fatal(err)
	}
	if obj.Geometry == before {
		t.Error("large ratio change did not refetch geometry")
	}
	if err := scene.ApplyLOD(nil, 0.02); err == nil {
		t.Error("nil provider accepted")
	}
}

func TestLocalDecimatorUnknownObject(t *testing.T) {
	lib, err := LibraryFor(SC2(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLocalDecimator(lib).Decimate("ghost", 0.5); err == nil {
		t.Fatal("unknown object accepted")
	}
}

func TestOutOfViewObjects(t *testing.T) {
	lib := sc1Library(t)
	scene := NewScene(lib)
	if err := scene.PlaceAll(SC1(), 1.5); err != nil {
		t.Fatal(err)
	}
	full := scene.VisibleTriangles()
	bike, err := scene.Object("bike")
	if err != nil {
		t.Fatal(err)
	}
	bike.OutOfView = true
	hidden := scene.VisibleTriangles()
	if hidden >= full {
		t.Fatalf("hiding bike did not reduce visible triangles: %v -> %v", full, hidden)
	}
	want := full - float64(bike.Triangles)*CullFraction(bike.Distance)
	if math.Abs(hidden-want) > 1 {
		t.Fatalf("visible after hide = %v, want %v", hidden, want)
	}
	// A hidden degraded object does not drag quality down.
	bike.Triangles = bike.Spec.MaxTriangles / 20
	qHidden := scene.AverageQuality()
	bike.OutOfView = false
	qShown := scene.AverageQuality()
	if qShown >= qHidden {
		t.Fatalf("showing a heavily decimated object should reduce quality: %v -> %v", qHidden, qShown)
	}
	// Hiding everything leaves perfect quality by convention.
	for _, o := range scene.Objects() {
		o.OutOfView = true
	}
	if q := scene.AverageQuality(); q != 1 {
		t.Fatalf("all-hidden quality = %v, want 1", q)
	}
	if q := scene.TrueAverageQuality(); q != 1 {
		t.Fatalf("all-hidden true quality = %v, want 1", q)
	}
}

// TestLibraryTruthMemo checks that a memoized library is bit-identical to a
// fresh one: same truths (as float bits, and as quality.TruthFromMesh derives
// them from the spec's geometry) and same fitted parameters.
func TestLibraryTruthMemo(t *testing.T) {
	var specs []ObjectSpec
	for _, c := range append(SC1(), SC2()...) {
		specs = append(specs, c.Spec)
	}
	truthMemo.Lock()
	truthMemo.truths = nil // force a fresh derivation
	truthMemo.Unlock()
	fresh, err := NewLibrary(specs, 9)
	if err != nil {
		t.Fatal(err)
	}
	truthMemo.Lock()
	memoized := len(truthMemo.truths)
	truthMemo.Unlock()
	if memoized != len(specs) {
		t.Fatalf("memo holds %d truths after one library of %d specs", memoized, len(specs))
	}
	memo, err := NewLibrary(specs, 9)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(vs ...float64) [4]uint64 {
		var out [4]uint64
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for _, s := range specs {
		g, err := s.Geometry()
		if err != nil {
			t.Fatal(err)
		}
		want, err := quality.TruthFromMesh(g, s.DistExp)
		if err != nil {
			t.Fatal(err)
		}
		for _, lib := range []*Library{fresh, memo} {
			got, _ := lib.Truth(s.Name)
			if bits(got.Severity, got.Gamma, got.DistExp) != bits(want.Severity, want.Gamma, want.DistExp) {
				t.Fatalf("%s: truth %+v, want %+v", s.Name, got, want)
			}
		}
		pf, _ := fresh.Params(s.Name)
		pm, _ := memo.Params(s.Name)
		if bits(pf.A, pf.B, pf.C, pf.D) != bits(pm.A, pm.B, pm.C, pm.D) {
			t.Fatalf("%s: memoized params %+v, fresh %+v", s.Name, pm, pf)
		}
	}
}
