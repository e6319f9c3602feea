package wire

import (
	"bytes"
	"testing"

	"github.com/mar-hbo/hbo/internal/mesh"
)

// FuzzFrameDecode throws arbitrary bytes at the frame decoder. Two
// invariants: the decoder never panics whatever the input, and any input it
// accepts re-encodes to byte-identical bytes (the canonical-codec
// invariant — there is exactly one wire representation of every frame, so a
// proxy or store can re-frame traffic without changing it).
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range sampleFrames() {
		b, err := AppendFrame(nil, &fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[4:]) // frame body without the length prefix
	}
	// Hostile shapes: truncations, zero bytes, a huge length field.
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 16))
	f.Add([]byte{1, 5, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 0, 0})
	// The retired version-handshake frames (types 1 and 2), exactly as
	// they were once encoded, CRC intact; TestDecodeRejects pins that the
	// decoder now refuses their type codes.
	f.Add([]byte{1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0x4b, 0x1b, 0xfb, 0x67})
	f.Add([]byte{1, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0x85, 0x77, 0x31, 0xda})

	f.Fuzz(func(t *testing.T, body []byte) {
		var fr Frame
		if err := DecodeFrame(body, &fr); err != nil {
			return
		}
		re, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v (%+v)", err, fr)
		}
		if !bytes.Equal(re[4:], body) {
			t.Fatalf("decode not canonical:\n   in: %x\nre-out: %x", body, re[4:])
		}
		// Decoding the re-encoded frame must agree with itself (fixpoint).
		var again Frame
		if err := DecodeFrame(re[4:], &again); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
	})
}

// FuzzMeshDecode throws arbitrary bytes at the mesh payload decoder, with
// the same two invariants as FuzzFrameDecode: no input makes it panic, and
// any payload it accepts re-encodes to byte-identical bytes. The checked-in
// corpus (testdata/fuzz/FuzzMeshDecode) holds a valid small mesh and one
// payload per decoder check; the empty mesh is seeded here.
func FuzzMeshDecode(f *testing.F) {
	f.Add(encodeMesh(f, &mesh.Mesh{}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeMesh(payload)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted mesh fails Validate: %v", err)
		}
		re, err := AppendMesh(nil, m)
		if err != nil {
			t.Fatalf("accepted mesh failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("decode not canonical:\n   in: %x\nre-out: %x", payload, re)
		}
	})
}
