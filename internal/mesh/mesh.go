// Package mesh implements the triangle-mesh substrate of the reproduction:
// mesh representation, procedural generators standing in for the paper's 3D
// assets (Table II), and quadric-error-metric edge-collapse decimation — the
// "virtual object decimation algorithm" that the paper's edge server runs
// (Fig. 3) to produce reduced-triangle-count versions of each object — with
// a progressive log of it (Progressive) that serves every triangle budget of
// one object as a prefix of a single collapse run.
package mesh

import (
	"fmt"
	"math"
)

// Vec3 is a point or vector in model space.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product of v and w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Triangle indexes three vertices of a mesh, counter-clockwise when viewed
// from outside. Indices are int32, the width the mesh payload carries (u32
// on the wire, DESIGN.md §14), so a triangle takes 12 bytes in every
// decoded and extracted mesh. Builders that hold int indices go through
// addTriangles, which refuses any index the width cannot hold.
type Triangle [3]int32

// Mesh is an indexed triangle mesh.
type Mesh struct {
	Vertices  []Vec3
	Triangles []Triangle
}

// addTriangles appends one triangle per three indices of idx (its length
// is a multiple of 3) to m. It fails, appending nothing, when an index is
// negative or past math.MaxInt32, so no index wraps silently. The
// generators and ReadOBJ build every triangle through it.
func (m *Mesh) addTriangles(idx ...int) error {
	for _, v := range idx {
		if v < 0 || v > math.MaxInt32 {
			return fmt.Errorf("mesh: vertex index %d does not fit a triangle's int32 index", v)
		}
	}
	for i := 0; i+2 < len(idx); i += 3 {
		m.Triangles = append(m.Triangles, Triangle{int32(idx[i]), int32(idx[i+1]), int32(idx[i+2])})
	}
	return nil
}

// TriangleCount returns the number of triangles.
func (m *Mesh) TriangleCount() int { return len(m.Triangles) }

// Clone returns a deep copy of the mesh.
func (m *Mesh) Clone() *Mesh {
	out := &Mesh{
		Vertices:  make([]Vec3, len(m.Vertices)),
		Triangles: make([]Triangle, len(m.Triangles)),
	}
	copy(out.Vertices, m.Vertices)
	copy(out.Triangles, m.Triangles)
	return out
}

// Validate checks structural invariants: triangle indices in range, no
// degenerate (repeated-index) triangles.
func (m *Mesh) Validate() error {
	n := len(m.Vertices)
	for i, t := range m.Triangles {
		for _, v := range t {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("mesh: triangle %d references vertex %d of %d", i, v, n)
			}
		}
		if t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
			return fmt.Errorf("mesh: triangle %d is degenerate: %v", i, t)
		}
	}
	return nil
}

// Bounds returns the axis-aligned bounding box (min, max) of the mesh. An
// empty mesh returns zero vectors.
func (m *Mesh) Bounds() (Vec3, Vec3) {
	if len(m.Vertices) == 0 {
		return Vec3{}, Vec3{}
	}
	lo, hi := m.Vertices[0], m.Vertices[0]
	for _, v := range m.Vertices[1:] {
		lo.X = math.Min(lo.X, v.X)
		lo.Y = math.Min(lo.Y, v.Y)
		lo.Z = math.Min(lo.Z, v.Z)
		hi.X = math.Max(hi.X, v.X)
		hi.Y = math.Max(hi.Y, v.Y)
		hi.Z = math.Max(hi.Z, v.Z)
	}
	return lo, hi
}

// SurfaceArea returns the total triangle area of the mesh.
func (m *Mesh) SurfaceArea() float64 {
	total := 0.0
	for _, t := range m.Triangles {
		a := m.Vertices[t[0]]
		b := m.Vertices[t[1]]
		c := m.Vertices[t[2]]
		total += b.Sub(a).Cross(c.Sub(a)).Norm() / 2
	}
	return total
}

// Centroid returns the vertex centroid of the mesh.
func (m *Mesh) Centroid() Vec3 {
	if len(m.Vertices) == 0 {
		return Vec3{}
	}
	var sum Vec3
	for _, v := range m.Vertices {
		sum = sum.Add(v)
	}
	return sum.Scale(1 / float64(len(m.Vertices)))
}

// Compact removes vertices not referenced by any triangle, remapping
// indices. It counts the used vertices first, so the new vertex array is
// allocated once at its exact size. It returns the same mesh for chaining.
func (m *Mesh) Compact() *Mesh {
	remap := make([]int32, len(m.Vertices))
	for _, t := range m.Triangles {
		for _, v := range t {
			remap[v] = 1
		}
	}
	n := int32(0)
	for i, u := range remap {
		if u == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = n
		n++
	}
	var verts []Vec3 // nil when no vertex is used
	if n > 0 {
		verts = make([]Vec3, n)
	}
	for i, j := range remap {
		if j >= 0 {
			verts[j] = m.Vertices[i]
		}
	}
	for i, t := range m.Triangles {
		m.Triangles[i] = Triangle{remap[t[0]], remap[t[1]], remap[t[2]]}
	}
	m.Vertices = verts
	return m
}
