package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/mar-hbo/hbo/internal/mesh"
)

// The mesh payload is the body of a 200 from /session/decimate
// (DESIGN.md §14): one decimated mesh in a flat little-endian layout.
//
//	version u8          MeshVersion
//	nv      u32         vertex count
//	nt      u32         triangle count
//	verts   nv×3 u64    X, Y, Z of each vertex as IEEE-754 bits
//	tris    nt×3 u32    vertex indices of each triangle
//	crc     u32         IEEE CRC-32 of version..tris
//
// Indices travel as u32 but decode into mesh.Triangle's int32, so nv is
// capped at math.MaxInt32: past it an index could wrap negative. Both
// directions enforce the cap, and the layout itself is unchanged.
//
// Like frames, the encoding is canonical: every payload DecodeMesh accepts
// re-encodes to byte-identical bytes (FuzzMeshDecode enforces this), and
// AppendMesh refuses any mesh DecodeMesh would reject.

// MeshVersion is the mesh payload layout version.
const MeshVersion = 1

// meshHeaderLen is version u8 + nv u32 + nt u32.
const meshHeaderLen = 1 + 4 + 4

// MeshSize returns the exact encoded size of m, so a caller can size the
// destination buffer once.
func MeshSize(m *mesh.Mesh) int {
	return meshHeaderLen + 24*len(m.Vertices) + 12*len(m.Triangles) + crcLen
}

// AppendMesh appends the canonical encoding of m to dst and returns the
// extended slice. It allocates only when dst lacks capacity (size it with
// MeshSize). A mesh the decoder would reject — more than math.MaxInt32
// vertices, a triangle count past u32, an index out of range, a degenerate
// triangle — is refused here instead.
//
//hbo:codec mesh encode
//hbo:noalloc
func AppendMesh(dst []byte, m *mesh.Mesh) ([]byte, error) {
	if !meshCountsFit(len(m.Vertices), len(m.Triangles)) {
		return dst, fmt.Errorf("wire: mesh of %d vertices and %d triangles overflows the payload's counts", len(m.Vertices), len(m.Triangles))
	}
	if err := m.Validate(); err != nil {
		return dst, fmt.Errorf("wire: %w", err)
	}
	at := len(dst)
	dst = append(dst, MeshVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Vertices)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Triangles)))
	for _, v := range m.Vertices {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Y))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Z))
	}
	for _, t := range m.Triangles {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t[0]))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t[1]))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t[2]))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[at:])), nil
}

// meshCountsFit reports whether the payload can carry a mesh of nv
// vertices and nt triangles: nv at most math.MaxInt32, so no index wraps
// negative as an int32, and nt within u32.
func meshCountsFit(nv, nt int) bool {
	return uint64(nv) <= math.MaxInt32 && uint64(nt) <= math.MaxUint32
}

// DecodeMesh parses one mesh payload into a fresh mesh (three allocations:
// the mesh and its two arrays). It never panics on hostile input: the CRC
// is checked before any field is trusted, and the exact body length against
// the counts before anything is allocated, so the vertex and triangle
// blocks then decode in tight loops with no per-field bounds bookkeeping.
// Every triangle is checked against the vertex count and for degeneracy,
// so an accepted mesh passes mesh.Validate.
//
//hbo:codec mesh decode
func DecodeMesh(buf []byte) (*mesh.Mesh, error) {
	if len(buf) < meshHeaderLen+crcLen {
		return nil, fmt.Errorf("wire: %d-byte mesh payload shorter than any valid one", len(buf))
	}
	body, tail := buf[:len(buf)-crcLen], buf[len(buf)-crcLen:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("wire: mesh CRC mismatch (got %08x want %08x)", got, want)
	}
	h := checkedBlock(body[:meshHeaderLen])
	if v := h.u8(0); v != MeshVersion {
		return nil, fmt.Errorf("wire: unsupported mesh version %d", v)
	}
	nv, nt := h.u32(1), h.u32(5)
	if nv > math.MaxInt32 {
		return nil, fmt.Errorf("wire: mesh of %d vertices overflows int32 indices", nv)
	}
	// The exact length rejects truncation and trailing bytes alike. u64
	// arithmetic: 24·(2³²−1) + 12·(2³²−1) cannot overflow, so a hostile
	// count can neither wrap the check nor size an allocation the input
	// does not back byte for byte.
	if want := uint64(meshHeaderLen) + 24*uint64(nv) + 12*uint64(nt); want != uint64(len(body)) {
		return nil, fmt.Errorf("wire: mesh body of %d bytes, want %d for %d vertices and %d triangles", len(body), want, nv, nt)
	}
	m := &mesh.Mesh{Vertices: make([]mesh.Vec3, nv), Triangles: make([]mesh.Triangle, nt)}
	// int, not u32, arithmetic: the check above bounds 24·nv by the body.
	verts, tris := body[meshHeaderLen:][:24*int(nv)], body[meshHeaderLen+24*int(nv):]
	for i := range m.Vertices {
		v := checkedBlock(verts[24*i:][:24])
		m.Vertices[i] = mesh.Vec3{X: v.f64(0), Y: v.f64(8), Z: v.f64(16)}
	}
	for i := range m.Triangles {
		t := checkedBlock(tris[12*i:][:12])
		a, b, c := t.u32(0), t.u32(4), t.u32(8)
		if a >= nv || b >= nv || c >= nv {
			return nil, fmt.Errorf("wire: triangle %d references vertex %d of %d", i, max(a, b, c), nv)
		}
		if a == b || b == c || a == c {
			return nil, fmt.Errorf("wire: triangle %d is degenerate: [%d %d %d]", i, a, b, c)
		}
		// Each index is below nv <= math.MaxInt32, so int32 holds it.
		m.Triangles[i] = mesh.Triangle{int32(a), int32(b), int32(c)}
	}
	return m, nil
}

// checkedBlock is a slice of bytes whose length the caller has already
// checked against every offset it reads, so its reads carry no error
// state. Its method names match frameReader's, so codeclint reads them
// alike.
type checkedBlock []byte

func (b checkedBlock) u8(off int) uint8 { return b[off] }

func (b checkedBlock) u32(off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }

func (b checkedBlock) f64(off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}
