package mesh

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestUVSphereStructure(t *testing.T) {
	m, err := UVSphere(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 2 * 16 * (8 - 1)
	if got := m.TriangleCount(); got != want {
		t.Fatalf("triangle count = %d, want %d", got, want)
	}
	// Closed surface: Euler characteristic V - E + F = 2, E = 3F/2.
	f := m.TriangleCount()
	v := len(m.Vertices)
	if chi := v - 3*f/2 + f; chi != 2 {
		t.Fatalf("Euler characteristic = %d, want 2", chi)
	}
	// All vertices on the unit sphere.
	for _, p := range m.Vertices {
		if math.Abs(p.Norm()-1) > 1e-9 {
			t.Fatalf("vertex %v not on unit sphere", p)
		}
	}
}

func TestUVSphereRejectsBadArgs(t *testing.T) {
	if _, err := UVSphere(1, 16); err == nil {
		t.Fatal("UVSphere(1,16) succeeded")
	}
	if _, err := UVSphere(8, 2); err == nil {
		t.Fatal("UVSphere(8,2) succeeded")
	}
}

func TestSphereWithTrianglesMeetsTarget(t *testing.T) {
	for _, target := range []int{10, 100, 1000, 5000, 20000} {
		m, err := SphereWithTriangles(target)
		if err != nil {
			t.Fatal(err)
		}
		if m.TriangleCount() < target {
			t.Errorf("sphere for target %d has %d triangles", target, m.TriangleCount())
		}
		if m.TriangleCount() > 3*target+100 {
			t.Errorf("sphere for target %d overshoots badly: %d", target, m.TriangleCount())
		}
	}
}

func TestTorus(t *testing.T) {
	m, err := Torus(0.3, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.TriangleCount(), 2*12*8; got != want {
		t.Fatalf("torus triangles = %d, want %d", got, want)
	}
	f, v := m.TriangleCount(), len(m.Vertices)
	if chi := v - 3*f/2 + f; chi != 0 {
		t.Fatalf("torus Euler characteristic = %d, want 0", chi)
	}
}

func TestBlobDeterministicAndValid(t *testing.T) {
	a, err := Blob(2000, 7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Blob(2000, 7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range a.Vertices {
		if a.Vertices[i] != b.Vertices[i] {
			t.Fatal("Blob is not deterministic for the same seed")
		}
	}
	c, err := Blob(2000, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Vertices {
		if a.Vertices[i] != c.Vertices[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical blobs")
	}
}

func TestBox(t *testing.T) {
	m, err := Box(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.TriangleCount(), 12*4*4; got != want {
		t.Fatalf("box triangles = %d, want %d", got, want)
	}
	lo, hi := m.Bounds()
	if lo.X != -0.5 || hi.X != 0.5 {
		t.Fatalf("box bounds = %v..%v", lo, hi)
	}
}

func TestSurfaceAreaSphere(t *testing.T) {
	m, err := SphereWithTriangles(20000)
	if err != nil {
		t.Fatal(err)
	}
	// Inscribed polyhedron area approaches 4π from below.
	area := m.SurfaceArea()
	if area > 4*math.Pi || area < 4*math.Pi*0.98 {
		t.Fatalf("sphere surface area = %v, want just under %v", area, 4*math.Pi)
	}
}

func TestCompact(t *testing.T) {
	m := &Mesh{
		Vertices:  []Vec3{{0, 0, 0}, {9, 9, 9}, {1, 0, 0}, {0, 1, 0}},
		Triangles: []Triangle{{0, 2, 3}},
	}
	m.Compact()
	if len(m.Vertices) != 3 {
		t.Fatalf("compact left %d vertices, want 3", len(m.Vertices))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecimateReachesTarget(t *testing.T) {
	m, err := SphereWithTriangles(4000)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{2000, 1000, 400, 100} {
		out, err := Decimate(m, target)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if out.TriangleCount() > target {
			t.Errorf("target %d: got %d triangles", target, out.TriangleCount())
		}
		if out.TriangleCount() < target/2 {
			t.Errorf("target %d: overshot down to %d triangles", target, out.TriangleCount())
		}
	}
}

func TestDecimatePreservesShape(t *testing.T) {
	m, err := SphereWithTriangles(4000)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decimate(m, 500)
	if err != nil {
		t.Fatal(err)
	}
	// All vertices should stay near the unit sphere.
	for _, p := range out.Vertices {
		if r := p.Norm(); r < 0.85 || r > 1.15 {
			t.Fatalf("decimated vertex at radius %v, want ~1", r)
		}
	}
	// Area should not collapse.
	if a := out.SurfaceArea(); a < 0.85*4*math.Pi {
		t.Fatalf("decimated sphere area = %v, want >= 85%% of 4π", a)
	}
}

func TestDecimateNoOpAtOrAboveCount(t *testing.T) {
	m, err := SphereWithTriangles(500)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decimate(m, m.TriangleCount()+10)
	if err != nil {
		t.Fatal(err)
	}
	if out.TriangleCount() != m.TriangleCount() {
		t.Fatalf("no-op decimation changed count %d -> %d", m.TriangleCount(), out.TriangleCount())
	}
}

func TestDecimateRejectsNegativeTarget(t *testing.T) {
	m, _ := SphereWithTriangles(100)
	if _, err := Decimate(m, -1); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestDecimateMonotoneProperty(t *testing.T) {
	base, err := Blob(3000, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	f := func(r1, r2 uint16) bool {
		// Map to ratios in [0.1, 1].
		a := 0.1 + 0.9*float64(r1)/65535
		b := 0.1 + 0.9*float64(r2)/65535
		if a > b {
			a, b = b, a
		}
		ma, err := DecimateToRatio(base, a)
		if err != nil {
			return false
		}
		mb, err := DecimateToRatio(base, b)
		if err != nil {
			return false
		}
		return ma.TriangleCount() <= mb.TriangleCount()+1 && ma.Validate() == nil && mb.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestDecimateAllocs fences the decimator's flat working state: one
// half-resolution pass over a 3k-triangle blob must stay far below the
// per-face and per-collapse map churn of a map-backed implementation
// (~15k allocations).
func TestDecimateAllocs(t *testing.T) {
	m, err := Blob(3000, 7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DecimateToRatio(m, 0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6000 {
		t.Fatalf("Decimate made %.0f allocations, want <= 6000", allocs)
	}
}

// TestCompactAllocs pins Compact to its remap table and one exactly sized
// vertex array, with one allocation to spare.
func TestCompactAllocs(t *testing.T) {
	m, err := Blob(3000, 7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Keeping only the first half of the faces leaves vertices unused.
	half := &Mesh{Vertices: m.Vertices, Triangles: m.Triangles[:len(m.Triangles)/2]}
	tris := make([]Triangle, len(half.Triangles))
	allocs := testing.AllocsPerRun(20, func() {
		copy(tris, half.Triangles)
		(&Mesh{Vertices: half.Vertices, Triangles: tris}).Compact()
	})
	if allocs > 3 {
		t.Fatalf("Compact made %v allocs/op, want <= 3", allocs)
	}
}

func TestVecOps(t *testing.T) {
	a := Vec3{1, 0, 0}
	b := Vec3{0, 1, 0}
	if c := a.Cross(b); c != (Vec3{0, 0, 1}) {
		t.Fatalf("cross = %v", c)
	}
	if d := a.Dot(b); d != 0 {
		t.Fatalf("dot = %v", d)
	}
	if s := a.Add(b).Sub(b); s != a {
		t.Fatalf("add/sub = %v", s)
	}
	if n := a.Scale(3).Norm(); n != 3 {
		t.Fatalf("norm = %v", n)
	}
}

func TestValidateCatchesBadMesh(t *testing.T) {
	bad := &Mesh{Vertices: []Vec3{{0, 0, 0}}, Triangles: []Triangle{{0, 0, 0}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("degenerate triangle passed validation")
	}
	oob := &Mesh{Vertices: []Vec3{{0, 0, 0}}, Triangles: []Triangle{{0, 1, 2}}}
	if err := oob.Validate(); err == nil {
		t.Fatal("out-of-range indices passed validation")
	}
}

// TestAddTrianglesChecksIndexWidth pins the one checked conversion from
// int indices that the generators and ReadOBJ share: an index that is
// negative or past math.MaxInt32 is refused, and nothing is appended.
func TestAddTrianglesChecksIndexWidth(t *testing.T) {
	m := &Mesh{}
	if err := m.addTriangles(0, 1, 2, 2, 1, math.MaxInt32); err != nil {
		t.Fatalf("in-range indices: %v", err)
	}
	want := []Triangle{{0, 1, 2}, {2, 1, math.MaxInt32}}
	if !slices.Equal(m.Triangles, want) {
		t.Fatalf("triangles = %v, want %v", m.Triangles, want)
	}
	wide := math.MaxInt32
	wide++ // 2³¹ where int has 64 bits; it wraps negative where it has 32
	for _, bad := range []int{-1, wide} {
		if err := m.addTriangles(0, 1, 2, 0, 1, bad); err == nil {
			t.Fatalf("index %d accepted", bad)
		}
		if !slices.Equal(m.Triangles, want) {
			t.Fatalf("index %d: triangles = %v, want %v untouched", bad, m.Triangles, want)
		}
	}
}
