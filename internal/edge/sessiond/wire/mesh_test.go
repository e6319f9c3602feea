package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/mar-hbo/hbo/internal/mesh"
)

// smallMesh is a two-triangle quad with coordinates whose bit patterns a
// text round trip would not all preserve (−0, a subnormal, a non-dyadic
// fraction).
func smallMesh() *mesh.Mesh {
	return &mesh.Mesh{
		Vertices: []mesh.Vec3{
			{X: 0, Y: 0, Z: math.Copysign(0, -1)},
			{X: 1, Y: 0, Z: 0.1},
			{X: 1, Y: 1, Z: math.SmallestNonzeroFloat64},
			{X: 0, Y: 1, Z: -1e300},
		},
		Triangles: []mesh.Triangle{{0, 1, 2}, {0, 2, 3}},
	}
}

func encodeMesh(t testing.TB, m *mesh.Mesh) []byte {
	t.Helper()
	b, err := AppendMesh(nil, m)
	if err != nil {
		t.Fatalf("AppendMesh: %v", err)
	}
	return b
}

// assertMeshIdentical fails unless got carries want's exact float bits and
// triangle indices.
func assertMeshIdentical(t testing.TB, want, got *mesh.Mesh) {
	t.Helper()
	if len(got.Vertices) != len(want.Vertices) || len(got.Triangles) != len(want.Triangles) {
		t.Fatalf("mesh is %d vertices / %d triangles, want %d / %d",
			len(got.Vertices), len(got.Triangles), len(want.Vertices), len(want.Triangles))
	}
	for i, v := range want.Vertices {
		g := got.Vertices[i]
		if math.Float64bits(g.X) != math.Float64bits(v.X) ||
			math.Float64bits(g.Y) != math.Float64bits(v.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(v.Z) {
			t.Fatalf("vertex %d = %v, want %v (bitwise)", i, g, v)
		}
	}
	for i, tri := range want.Triangles {
		if got.Triangles[i] != tri {
			t.Fatalf("triangle %d = %v, want %v", i, got.Triangles[i], tri)
		}
	}
}

// TestMeshRoundTrip checks encode∘decode is bit-exact, that MeshSize is
// the exact encoded size, and that the decoded mesh re-encodes to the same
// bytes (the canonical invariant). The empty mesh is a valid payload.
func TestMeshRoundTrip(t *testing.T) {
	for _, m := range []*mesh.Mesh{smallMesh(), {}} {
		b := encodeMesh(t, m)
		if len(b) != MeshSize(m) {
			t.Fatalf("encoded %d bytes, MeshSize says %d", len(b), MeshSize(m))
		}
		got, err := DecodeMesh(b)
		if err != nil {
			t.Fatalf("DecodeMesh: %v", err)
		}
		assertMeshIdentical(t, m, got)
		if re := encodeMesh(t, got); !bytes.Equal(re, b) {
			t.Fatalf("re-encode not canonical\n first: %x\nsecond: %x", b, re)
		}
	}
	// AppendMesh appends: a prefix in dst survives and is not checksummed.
	prefix := []byte("xyz")
	b, err := AppendMesh(append([]byte(nil), prefix...), smallMesh())
	if err != nil || !bytes.Equal(b[:3], prefix) {
		t.Fatalf("AppendMesh after a prefix: %v, %q", err, b[:3])
	}
	if _, err := DecodeMesh(b[3:]); err != nil {
		t.Fatalf("payload after a prefix does not decode: %v", err)
	}
}

// hostileMeshInputs derives one malformed payload per decoder check from
// a valid small mesh. Every case but the flipped CRC carries a correct CRC,
// so it reaches the check it targets. The fuzz corpus holds the same
// shapes.
func hostileMeshInputs(t testing.TB) map[string][]byte {
	good := encodeMesh(t, smallMesh())
	body := good[:len(good)-crcLen]
	edit := func(f func(b []byte) []byte) []byte {
		return recrc(append(f(append([]byte(nil), body...)), 0, 0, 0, 0))
	}
	flip := append([]byte(nil), good...)
	flip[len(flip)-1] ^= 0xff
	return map[string][]byte{
		"empty":       {},
		"truncated":   good[:len(good)/2],
		"flipped crc": flip,
		"bad version": edit(func(b []byte) []byte { b[0] = 2; return b }),
		"count overflow": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[1:], math.MaxUint32)
			binary.LittleEndian.PutUint32(b[5:], math.MaxUint32)
			return b
		}),
		"vertex count past int32": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[1:], 1<<31)
			binary.LittleEndian.PutUint32(b[5:], 0)
			return b[:meshHeaderLen]
		}),
		"short body": edit(func(b []byte) []byte { return b[:len(b)-12] }),
		"index out of range": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-4:], 4)
			return b
		}),
		"degenerate triangle": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-4:], 2)
			return b
		}),
		"trailing bytes": edit(func(b []byte) []byte { return append(b, 0) }),
	}
}

// TestMeshDecodeRejects pins every decoder check: the CRC, the version,
// the exact body length (truncation, overflowing counts, trailing bytes),
// and the triangle checks mesh.Validate makes.
func TestMeshDecodeRejects(t *testing.T) {
	for name, b := range hostileMeshInputs(t) {
		if m, err := DecodeMesh(b); err == nil {
			t.Errorf("%s: decode accepted %x as %d vertices / %d triangles", name, b, len(m.Vertices), len(m.Triangles))
		}
	}
}

// TestMeshVertexCountCap pins the int32 cap on the vertex count. A header
// claiming 2³¹ vertices fails on the cap itself, before the length check or
// any allocation; and the encoder refuses such a mesh, checked on the
// count alone since no test can hold 2³¹ vertices.
func TestMeshVertexCountCap(t *testing.T) {
	_, err := DecodeMesh(hostileMeshInputs(t)["vertex count past int32"])
	if err == nil || !strings.Contains(err.Error(), "int32") {
		t.Fatalf("decode of a 2^31-vertex header = %v, want the int32 cap", err)
	}
	if !meshCountsFit(math.MaxInt32, math.MaxInt32) {
		t.Fatal("meshCountsFit refused counts at the cap")
	}
	if strconv.IntSize < 64 {
		return // int cannot count past the cap
	}
	over := math.MaxInt32
	over++
	if meshCountsFit(over, 0) {
		t.Fatalf("meshCountsFit accepted %d vertices", over)
	}
}

// TestAppendMeshRejectsInvalid checks the encoder refuses what the decoder
// would reject, so a served payload always decodes.
func TestAppendMeshRejectsInvalid(t *testing.T) {
	for name, tri := range map[string]mesh.Triangle{
		"out of range": {0, 1, 4},
		"negative":     {-1, 1, 2},
		"degenerate":   {0, 1, 1},
	} {
		m := smallMesh()
		m.Triangles[1] = tri
		if b, err := AppendMesh([]byte("keep"), m); err == nil || string(b) != "keep" {
			t.Errorf("%s: AppendMesh = %q, %v; want dst untouched and an error", name, b, err)
		}
	}
}

// decimatedBlob is the BenchmarkMeshPayload mesh: Blob(3000) decimated to
// 0.55, about the ratio a lod-fetch refresh fetches on average.
func decimatedBlob(t testing.TB) *mesh.Mesh {
	full, err := mesh.Blob(3000, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.DecimateToRatio(full, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMeshCodecAllocs bounds the codec's allocations: encoding into a
// buffer sized by MeshSize makes none, and decoding makes at most four
// (the mesh and its two arrays, with one to spare).
func TestMeshCodecAllocs(t *testing.T) {
	m := decimatedBlob(t)
	buf := make([]byte, 0, MeshSize(m))
	var err error
	if allocs := testing.AllocsPerRun(50, func() {
		if buf, err = AppendMesh(buf[:0], m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendMesh into a sized buffer made %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeMesh(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("DecodeMesh made %v allocs/op, want <= 4", allocs)
	}
}

// meshSink keeps BenchmarkMeshPayload's decoded mesh live.
var meshSink *mesh.Mesh

// BenchmarkMeshPayload is one decimate response's codec work: encode on a
// cache miss plus the client's decode.
func BenchmarkMeshPayload(b *testing.B) {
	m := decimatedBlob(b)
	buf := make([]byte, 0, MeshSize(m))
	b.SetBytes(int64(MeshSize(m)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendMesh(buf[:0], m); err != nil {
			b.Fatal(err)
		}
		if meshSink, err = DecodeMesh(buf); err != nil {
			b.Fatal(err)
		}
	}
}
