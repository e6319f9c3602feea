package mesh

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteOBJ serializes the mesh in Wavefront OBJ format (v/f records only),
// the interchange format AR asset pipelines consume.
func WriteOBJ(w io.Writer, m *Mesh) error {
	if err := m.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d vertices, %d triangles\n", len(m.Vertices), len(m.Triangles))
	for _, v := range m.Vertices {
		fmt.Fprintf(bw, "v %g %g %g\n", v.X, v.Y, v.Z)
	}
	for _, t := range m.Triangles {
		// OBJ indices are 1-based.
		fmt.Fprintf(bw, "f %d %d %d\n", t[0]+1, t[1]+1, t[2]+1)
	}
	return bw.Flush()
}

// ReadOBJ parses a Wavefront OBJ stream: v records become vertices, f
// records become triangles (faces with more than three vertices are fanned).
// Normals, texture coordinates, groups and materials are ignored; negative
// (relative) indices are supported.
func ReadOBJ(r io.Reader) (*Mesh, error) {
	m := &Mesh{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "v":
			if len(fields) < 4 {
				return nil, fmt.Errorf("mesh: obj line %d: vertex needs 3 coordinates", lineNo)
			}
			var coords [3]float64
			for i := 0; i < 3; i++ {
				val, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("mesh: obj line %d: %w", lineNo, err)
				}
				coords[i] = val
			}
			m.Vertices = append(m.Vertices, Vec3{X: coords[0], Y: coords[1], Z: coords[2]})
		case "f":
			if len(fields) < 4 {
				return nil, fmt.Errorf("mesh: obj line %d: face needs at least 3 vertices", lineNo)
			}
			idx := make([]int, 0, len(fields)-1)
			for _, f := range fields[1:] {
				// "v", "v/vt", "v//vn", "v/vt/vn" — the vertex index leads.
				head, _, _ := strings.Cut(f, "/")
				v, err := strconv.Atoi(head)
				if err != nil {
					return nil, fmt.Errorf("mesh: obj line %d: %w", lineNo, err)
				}
				switch {
				case v > 0:
					v-- // to 0-based
				case v < 0:
					v = len(m.Vertices) + v // relative index
				default:
					return nil, fmt.Errorf("mesh: obj line %d: zero face index", lineNo)
				}
				if v < 0 || v >= len(m.Vertices) {
					return nil, fmt.Errorf("mesh: obj line %d: face index %d out of range", lineNo, v)
				}
				idx = append(idx, v)
			}
			// Fan-triangulate polygons.
			for i := 1; i+1 < len(idx); i++ {
				a, b, c := idx[0], idx[i], idx[i+1]
				if a == b || b == c || a == c {
					continue // skip degenerate slivers rather than failing
				}
				if err := m.addTriangles(a, b, c); err != nil {
					return nil, fmt.Errorf("mesh: obj line %d: %w", lineNo, err)
				}
			}
		default:
			// vn, vt, g, o, s, usemtl, mtllib... all ignored.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mesh: reading obj: %w", err)
	}
	if len(m.Vertices) == 0 || len(m.Triangles) == 0 {
		return nil, fmt.Errorf("mesh: obj contains no usable geometry")
	}
	return m, m.Validate()
}
