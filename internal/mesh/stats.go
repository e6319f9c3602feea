package mesh

import "math"

// Statistics summarizes a mesh's structural and geometric properties; the
// quality pipeline and tests use it to validate generators and decimators.
type Statistics struct {
	Vertices  int
	Triangles int
	Edges     int
	// BoundaryEdges counts edges incident to exactly one triangle (zero for
	// a watertight surface).
	BoundaryEdges int
	// NonManifoldEdges counts edges incident to three or more triangles.
	NonManifoldEdges int
	// EulerCharacteristic is V − E + F (2 for a sphere, 0 for a torus).
	EulerCharacteristic int
	// SurfaceArea is the triangle-area total.
	SurfaceArea float64
	// Volume is the signed volume by the divergence theorem; meaningful for
	// closed, consistently oriented surfaces.
	Volume float64
	// MeanEdgeLength is the average edge length.
	MeanEdgeLength float64
}

// Stats computes the mesh's statistics in one pass over the triangles.
func Stats(m *Mesh) Statistics {
	st := Statistics{
		Vertices:    len(m.Vertices),
		Triangles:   len(m.Triangles),
		SurfaceArea: m.SurfaceArea(),
	}
	edgeUse := make(map[[2]int32]int)
	edgeLenSum := 0.0
	for _, t := range m.Triangles {
		a, b, c := m.Vertices[t[0]], m.Vertices[t[1]], m.Vertices[t[2]]
		// Signed tetrahedron volume against the origin.
		st.Volume += a.Dot(b.Cross(c)) / 6
		for _, e := range [3][2]int32{{t[0], t[1]}, {t[1], t[2]}, {t[2], t[0]}} {
			u, v := e[0], e[1]
			if u > v {
				u, v = v, u
			}
			key := [2]int32{u, v}
			if edgeUse[key] == 0 {
				edgeLenSum += m.Vertices[u].Sub(m.Vertices[v]).Norm()
			}
			edgeUse[key]++
		}
	}
	st.Edges = len(edgeUse)
	for _, n := range edgeUse {
		switch {
		case n == 1:
			st.BoundaryEdges++
		case n > 2:
			st.NonManifoldEdges++
		}
	}
	st.EulerCharacteristic = st.Vertices - st.Edges + st.Triangles
	if st.Edges > 0 {
		st.MeanEdgeLength = edgeLenSum / float64(st.Edges)
	}
	return st
}

// IsWatertight reports whether every edge is shared by exactly two faces.
func (s Statistics) IsWatertight() bool {
	return s.BoundaryEdges == 0 && s.NonManifoldEdges == 0
}

// Genus returns the surface genus for a watertight, connected, orientable
// mesh (χ = 2 − 2g), or -1 when the mesh is not watertight.
func (s Statistics) Genus() int {
	if !s.IsWatertight() {
		return -1
	}
	g := (2 - s.EulerCharacteristic) / 2
	if g < 0 {
		return -1
	}
	return g
}

// SphereVolumeError returns the relative deviation of the measured volume
// from an ideal sphere with the mesh's surface area — a cheap sanity metric
// used by generator tests.
func (s Statistics) SphereVolumeError() float64 {
	if s.SurfaceArea <= 0 {
		return math.Inf(1)
	}
	r := math.Sqrt(s.SurfaceArea / (4 * math.Pi))
	ideal := 4.0 / 3 * math.Pi * r * r * r
	return math.Abs(s.Volume-ideal) / ideal
}
