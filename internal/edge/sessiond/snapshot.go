package sessiond

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/mar-hbo/hbo/internal/bo"
)

// Snapshot wire format (versioned, checksummed, deterministic):
//
//	magic   u32  "HBSS" (0x48425353)
//	version u16  snapshotVersion
//	flags   u16  bit1: a policy name follows (bit0, v1's GP factor, is unused)
//	id      u16 length + bytes                  (≤ maxIDLen)
//	params  resources u32, rmin f64, seed u64, init u32
//	rng     u64  sim.RNG state
//	obs     u32 n, u32 dim, n×dim f64 xs, n f64 ys
//	policy  [flag] u16 length + bytes           (≤ maxSnapshotPolicyLen)
//	crc     u32  IEEE CRC-32 of every preceding byte
//
// The session's state is its parameters, its optimizer's observation
// database and its RNG word, nothing else: the GP surrogate is derived from
// them and refit at the first suggest after a restore, and the session's
// mesh LRU restarts empty. Version 1 also carried the Cholesky factor and a
// mesh-LRU manifest; versions 1 and 2 carried suggest/observe counts and a
// window of recent rewards that nothing read. An older blob fails decode,
// and the corrupt-snapshot path (a fresh session, then the client's replay)
// recovers it.
//
// All integers are little-endian; floats are raw IEEE-754 bit patterns, so
// encode∘decode is bit-exact and two encodes of the same state are
// byte-identical (no maps are walked — every sequence has a defined order).
// The decoder is hardened against adversarial bytes: every count is checked
// against both its semantic bound and the bytes actually remaining before
// any allocation, so truncated or hostile input fails cleanly without
// over-allocating, and the trailing CRC rejects bit rot up front.
const (
	snapshotMagic   = 0x48425353 // "HBSS"
	snapshotVersion = 3

	// snapFlagPolicy marks a non-default optimizer policy name. The flag is
	// set if and only if the name is non-empty (the GP-EI default is always
	// the empty string), which keeps encode∘decode canonical.
	snapFlagPolicy = 1 << 1

	// maxSnapshotPolicyLen bounds a decoded policy name (real names are
	// single words; this is decoder armor).
	maxSnapshotPolicyLen = 64
)

// snapshot is the decoded form of one session's durable state.
type snapshot struct {
	id  string
	p   params
	opt *bo.OptimizerState
}

// encodeSnapshot serializes a snapshot. The layout above is append-only
// within a version; any layout change bumps snapshotVersion so old decoders
// refuse new blobs loudly instead of misparsing them.
//
//hbo:codec snapshot encode
func encodeSnapshot(s *snapshot) []byte {
	dim := s.p.resources + 1
	n := len(s.opt.X)
	size := 4 + 2 + 2 + // magic, version, flags
		2 + len(s.id) +
		4 + 8 + 8 + 4 + // params
		8 + // rng
		4 + 4 + 8*n*dim + 8*n +
		4 // crc
	hasPolicy := s.p.policy != ""
	if hasPolicy {
		size += 2 + len(s.p.policy)
	}

	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint32(b, snapshotMagic)
	b = binary.LittleEndian.AppendUint16(b, snapshotVersion)
	flags := uint16(0)
	if hasPolicy {
		flags |= snapFlagPolicy
	}
	b = binary.LittleEndian.AppendUint16(b, flags)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s.id)))
	b = append(b, s.id...)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.p.resources))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.p.rmin))
	b = binary.LittleEndian.AppendUint64(b, s.p.seed)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.p.init))
	b = binary.LittleEndian.AppendUint64(b, s.opt.RNGState)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, uint32(dim))
	for _, x := range s.opt.X {
		for _, v := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, v := range s.opt.Y {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	if hasPolicy {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s.p.policy)))
		b = append(b, s.p.policy...)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b
}

// snapReader is a bounds-checked cursor over an untrusted snapshot payload.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("sessiond: snapshot: "+format, args...)
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("truncated at offset %d (need %d of %d remaining)", r.off, n, len(r.b)-r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *snapReader) u16() uint16 {
	if p := r.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *snapReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *snapReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

// f64s reads a count-checked float vector. The remaining-bytes check in
// take guarantees the allocation is backed by real input, so a hostile
// length prefix cannot make the decoder allocate more than it was handed.
func (r *snapReader) f64s(n int) []float64 {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < 8*n {
		r.fail("truncated float vector of %d at offset %d", n, r.off)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

// decodeSnapshot parses and validates an untrusted snapshot blob. It never
// panics: every read is bounds-checked, every count is validated against
// both its semantic limit and the remaining input, and the CRC is verified
// before any structure is trusted.
//
//hbo:codec snapshot decode
func decodeSnapshot(blob []byte) (*snapshot, error) {
	if len(blob) < 12 {
		return nil, fmt.Errorf("sessiond: snapshot: %d bytes is shorter than any valid snapshot", len(blob))
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("sessiond: snapshot: CRC mismatch (got %08x want %08x)", got, want)
	}
	r := &snapReader{b: body}
	if magic := r.u32(); r.err == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("sessiond: snapshot: bad magic %08x", magic)
	}
	if v := r.u16(); r.err == nil && v != snapshotVersion {
		return nil, fmt.Errorf("sessiond: snapshot: unsupported version %d", v)
	}
	flags := r.u16()
	if r.err == nil && flags&^uint16(snapFlagPolicy) != 0 {
		// Unknown flags mean a future writer; refusing keeps decode∘encode
		// canonical (every accepted blob re-encodes to identical bytes).
		return nil, fmt.Errorf("sessiond: snapshot: unknown flags %04x", flags)
	}

	s := &snapshot{opt: &bo.OptimizerState{}}
	idLen := int(r.u16())
	if r.err == nil && idLen > maxIDLen {
		return nil, fmt.Errorf("sessiond: snapshot: id length %d over %d", idLen, maxIDLen)
	}
	s.id = string(r.take(idLen))
	s.p.resources = int(r.u32())
	s.p.rmin = r.f64()
	s.p.seed = r.u64()
	s.p.init = int(r.u32())
	if r.err == nil {
		if err := s.p.validate(); err != nil {
			return nil, fmt.Errorf("sessiond: snapshot: %w", err)
		}
	}
	s.opt.RNGState = r.u64()

	n := int(r.u32())
	dim := int(r.u32())
	if r.err == nil {
		if n > maxSessionObservations {
			return nil, fmt.Errorf("sessiond: snapshot: %d observations over cap %d", n, maxSessionObservations)
		}
		if dim != s.p.resources+1 {
			return nil, fmt.Errorf("sessiond: snapshot: dim %d does not match %d resources", dim, s.p.resources)
		}
	}
	if r.err == nil {
		s.opt.X = make([][]float64, 0, min(n, (len(r.b)-r.off)/(8*dim)+1))
		for i := 0; i < n && r.err == nil; i++ {
			s.opt.X = append(s.opt.X, r.f64s(dim))
		}
	}
	s.opt.Y = r.f64s(n)

	if flags&snapFlagPolicy != 0 {
		polLen := int(r.u16())
		if r.err == nil && (polLen < 1 || polLen > maxSnapshotPolicyLen) {
			return nil, fmt.Errorf("sessiond: snapshot: policy name length %d out of [1,%d]", polLen, maxSnapshotPolicyLen)
		}
		s.p.policy = string(r.take(polLen))
		if r.err == nil {
			// Re-run the params check now that the policy is known: the name
			// must be canonical (flag ⇔ non-empty keeps encode∘decode exact)
			// and registered.
			if err := s.p.validate(); err != nil {
				return nil, fmt.Errorf("sessiond: snapshot: %w", err)
			}
		}
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("sessiond: snapshot: %d trailing bytes", len(r.b)-r.off)
	}
	return s, nil
}
