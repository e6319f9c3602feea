package mesh_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/render"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// goldenSteps is the number of ratio steps per mesh: ratios 1/50 .. 50/50.
const goldenSteps = 50

type goldenMesh struct {
	name string
	m    *mesh.Mesh
}

// goldenMeshes returns every SC1+SC2 catalog geometry (one per object name)
// plus the procedural generators' canonical shapes.
func goldenMeshes(t *testing.T) []goldenMesh {
	t.Helper()
	var out []goldenMesh
	add := func(name string, m *mesh.Mesh, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, goldenMesh{name, m})
	}
	for _, c := range append(render.SC1(), render.SC2()...) {
		m, err := c.Spec.Geometry()
		add(c.Spec.Name, m, err)
	}
	for _, seed := range []uint64{1, 7} {
		m, err := mesh.Blob(3000, seed, 0.3)
		add(fmt.Sprintf("blob-3000-%d-0.3", seed), m, err)
	}
	m, err := mesh.UVSphere(24, 48)
	add("uvsphere-24x48", m, err)
	m, err = mesh.Torus(0.3, 24, 48)
	add("torus-0.3-24x48", m, err)
	m, err = mesh.Box(12)
	add("box-12", m, err)
	return out
}

// meshDigest is an FNV-64a hash over the vertex coordinates' float bits and
// the triangle indices, with both counts as a prefix.
func meshDigest(m *mesh.Mesh) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(len(m.Vertices)))
	put(uint64(len(m.Triangles)))
	for _, v := range m.Vertices {
		put(math.Float64bits(v.X))
		put(math.Float64bits(v.Y))
		put(math.Float64bits(v.Z))
	}
	for _, tri := range m.Triangles {
		for _, i := range tri {
			put(uint64(i))
		}
	}
	return h.Sum64()
}

// TestDecimateGolden pins the decimator's exact output: one digest per
// (mesh, ratio step) must match the checked-in golden file, so any change
// to the collapse order, the collapse positions or the output layout shows
// up here first. Regenerate deliberately with:
//
//	go test ./internal/mesh -run TestDecimateGolden -update
func TestDecimateGolden(t *testing.T) {
	var got bytes.Buffer
	for _, g := range goldenMeshes(t) {
		for step := 1; step <= goldenSteps; step++ {
			out, err := mesh.DecimateToRatio(g.m, float64(step)/goldenSteps)
			if err != nil {
				t.Fatalf("%s step %d: %v", g.name, step, err)
			}
			fmt.Fprintf(&got, "%s %d %d %016x\n", g.name, step, out.TriangleCount(), meshDigest(out))
		}
	}

	golden := filepath.Join("testdata", "decimate.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, got.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden file has %d lines, decimator produced %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range wantLines {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			if bad < 10 {
				t.Errorf("line %d: want %q, got %q", i+1, wantLines[i], gotLines[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d decimations drifted from %s", bad, len(wantLines)-1, golden)
	}
}
