package mesh

import (
	"fmt"
	"math"
)

// UVSphere generates a unit sphere with the given number of latitude rings
// and longitude segments. Triangle count is 2*segments*(rings-1).
func UVSphere(rings, segments int) (*Mesh, error) {
	if rings < 2 || segments < 3 {
		return nil, fmt.Errorf("mesh: UVSphere needs rings >= 2 and segments >= 3, got %d/%d", rings, segments)
	}
	m := &Mesh{}
	// Poles plus interior ring vertices.
	m.Vertices = append(m.Vertices, Vec3{0, 1, 0})
	for r := 1; r < rings; r++ {
		phi := math.Pi * float64(r) / float64(rings)
		for s := 0; s < segments; s++ {
			theta := 2 * math.Pi * float64(s) / float64(segments)
			m.Vertices = append(m.Vertices, Vec3{
				X: math.Sin(phi) * math.Cos(theta),
				Y: math.Cos(phi),
				Z: math.Sin(phi) * math.Sin(theta),
			})
		}
	}
	m.Vertices = append(m.Vertices, Vec3{0, -1, 0})
	southPole := len(m.Vertices) - 1
	idx := func(r, s int) int { return 1 + (r-1)*segments + (s % segments) }
	// Top cap.
	for s := 0; s < segments; s++ {
		if err := m.addTriangles(0, idx(1, s+1), idx(1, s)); err != nil {
			return nil, err
		}
	}
	// Body quads.
	for r := 1; r < rings-1; r++ {
		for s := 0; s < segments; s++ {
			a, b := idx(r, s), idx(r, s+1)
			c, d := idx(r+1, s), idx(r+1, s+1)
			if err := m.addTriangles(a, b, d, a, d, c); err != nil {
				return nil, err
			}
		}
	}
	// Bottom cap.
	for s := 0; s < segments; s++ {
		if err := m.addTriangles(southPole, idx(rings-1, s), idx(rings-1, s+1)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// SphereWithTriangles generates a sphere whose triangle count is close to
// (and at least) target by choosing rings and segments.
func SphereWithTriangles(target int) (*Mesh, error) {
	if target < 8 {
		return nil, fmt.Errorf("mesh: sphere target %d too small", target)
	}
	// 2*s*(r-1) ~ target with s = 2r gives 4r^2 ~ target.
	r := int(math.Ceil(math.Sqrt(float64(target) / 4)))
	if r < 2 {
		r = 2
	}
	s := 2 * r
	for 2*s*(r-1) < target {
		r++
		s = 2 * r
	}
	return UVSphere(r, s)
}

// Torus generates a torus with major radius 1 and the given minor radius,
// with rings x segments quads (2*rings*segments triangles).
func Torus(minorRadius float64, rings, segments int) (*Mesh, error) {
	if rings < 3 || segments < 3 {
		return nil, fmt.Errorf("mesh: Torus needs rings, segments >= 3, got %d/%d", rings, segments)
	}
	if minorRadius <= 0 || minorRadius >= 1 {
		return nil, fmt.Errorf("mesh: Torus minor radius %v out of (0,1)", minorRadius)
	}
	m := &Mesh{}
	for r := 0; r < rings; r++ {
		u := 2 * math.Pi * float64(r) / float64(rings)
		for s := 0; s < segments; s++ {
			v := 2 * math.Pi * float64(s) / float64(segments)
			cx, cz := math.Cos(u), math.Sin(u)
			m.Vertices = append(m.Vertices, Vec3{
				X: (1 + minorRadius*math.Cos(v)) * cx,
				Y: minorRadius * math.Sin(v),
				Z: (1 + minorRadius*math.Cos(v)) * cz,
			})
		}
	}
	idx := func(r, s int) int { return (r%rings)*segments + (s % segments) }
	for r := 0; r < rings; r++ {
		for s := 0; s < segments; s++ {
			a, b := idx(r, s), idx(r+1, s)
			c, d := idx(r, s+1), idx(r+1, s+1)
			// Wound so normals face outward (positive enclosed volume).
			if err := m.addTriangles(a, d, b, a, c, d); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// Blob generates an organic-looking closed surface: a sphere displaced by a
// deterministic multi-frequency bump field keyed by shapeSeed. It models
// assets with high-curvature detail (the paper's apricot, andy, ...).
func Blob(target int, shapeSeed uint64, roughness float64) (*Mesh, error) {
	m, err := SphereWithTriangles(target)
	if err != nil {
		return nil, err
	}
	// Deterministic pseudo-random lobe directions derived from the seed.
	lobes := make([]Vec3, 6)
	state := shapeSeed
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	for i := range lobes {
		theta := 2 * math.Pi * next()
		phi := math.Acos(2*next() - 1)
		lobes[i] = Vec3{
			X: math.Sin(phi) * math.Cos(theta),
			Y: math.Cos(phi),
			Z: math.Sin(phi) * math.Sin(theta),
		}
	}
	for i, v := range m.Vertices {
		disp := 0.0
		for k, l := range lobes {
			freq := 1.5 + float64(k)
			disp += math.Sin(freq*v.Dot(l)*math.Pi) / freq
		}
		m.Vertices[i] = v.Scale(1 + roughness*disp/float64(len(lobes)))
	}
	return m, nil
}

// Box generates an axis-aligned unit box with each face subdivided into an
// n x n grid (12*n*n triangles). It models flat, low-curvature assets (the
// paper's cabin).
func Box(n int) (*Mesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("mesh: Box subdivision %d must be >= 1", n)
	}
	m := &Mesh{}
	// Each face generated independently; duplicate edge vertices are fine
	// for our purposes (decimation treats them as boundary).
	addFace := func(origin, du, dv Vec3) error {
		base := len(m.Vertices)
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				p := origin.Add(du.Scale(float64(i) / float64(n))).Add(dv.Scale(float64(j) / float64(n)))
				m.Vertices = append(m.Vertices, p)
			}
		}
		at := func(i, j int) int { return base + i*(n+1) + j }
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b, c, d := at(i, j), at(i+1, j), at(i, j+1), at(i+1, j+1)
				if err := m.addTriangles(a, b, d, a, d, c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	x, y, z := Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1}
	o := Vec3{-0.5, -0.5, -0.5}
	for _, f := range [6][3]Vec3{
		{o, x, y},        // back (z = -0.5)
		{o.Add(z), y, x}, // front
		{o, y, z},        // left
		{o.Add(x), z, y}, // right
		{o, z, x},        // bottom
		{o.Add(y), x, z}, // top
	} {
		if err := addFace(f[0], f[1], f[2]); err != nil {
			return nil, err
		}
	}
	return m, nil
}
