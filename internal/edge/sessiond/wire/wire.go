// Package wire is the compact deterministic binary codec for the session
// service's session ops (DESIGN.md §14). Every open/suggest/observe/close
// is one little-endian length-prefixed frame, carried either on a
// multiplexed /session/stream connection or as the whole body of a
// single-frame POST to the same route:
//
//	length  u32  bytes that follow (header + payload + crc)
//	version u8   wire protocol version (currently 1)
//	type    u8   frame type (Open/Suggest/Observe/Close/Error)
//	flags   u16  type-specific bits; unknown bits are rejected
//	seq     u64  request sequence echoed on the matching response
//	payload ...  type-specific, fixed layout (no varints, no maps)
//	crc     u32  IEEE CRC-32 of version..payload, as in the HBSS snapshots
//
// Floats travel as raw IEEE-754 bit patterns, so encode∘decode is bit-exact
// and the codec is canonical: every frame that decodes successfully
// re-encodes to byte-identical bytes (FuzzFrameDecode enforces this). The
// decoder is hardened against adversarial input — every length is checked
// against both its semantic bound and the bytes actually present before any
// use, and the CRC is verified before any field is trusted.
//
// The hot path is allocation-free: DecodeFrame aliases the caller-owned
// input buffer for byte-slice fields and reuses the Frame's Point capacity,
// AppendFrame appends into a caller-owned buffer, and Reader/Writer keep
// reusable scratch (pool one per stream via GetReader/GetWriter).
//
// The package also codes the /session/decimate response body, one
// decimated mesh in the same style (AppendMesh/DecodeMesh, mesh.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// Version is the wire protocol version this package speaks. Every frame
// header carries it so a decoder can refuse a future layout loudly instead
// of misparsing it.
const Version = 1

// Type identifies a frame's layout and meaning.
type Type uint8

// Frame types. Requests are odd, their responses even, so a corrupted
// direction bit cannot silently turn one into the other. Codes 1 and 2 are
// retired (a version handshake no peer sends any more) and decode as
// unknown types.
const (
	TOpenReq     Type = 3
	TOpenResp    Type = 4
	TSuggestReq  Type = 5
	TSuggestResp Type = 6
	TObserveReq  Type = 7
	TObserveResp Type = 8
	TCloseReq    Type = 9
	TCloseResp   Type = 10
	TError       Type = 11
)

func (t Type) String() string {
	switch t {
	case TOpenReq:
		return "OpenReq"
	case TOpenResp:
		return "OpenResp"
	case TSuggestReq:
		return "SuggestReq"
	case TSuggestResp:
		return "SuggestResp"
	case TObserveReq:
		return "ObserveReq"
	case TObserveResp:
		return "ObserveResp"
	case TCloseReq:
		return "CloseReq"
	case TCloseResp:
		return "CloseResp"
	case TError:
		return "Error"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// OpenReq flags.
const (
	// FlagPolicy marks an OpenReq carrying an explicit optimizer-policy
	// name after the fixed fields. The flag is set if and only if the name
	// is non-empty, so pre-arena frames (GP-EI default) stay byte-identical
	// and the codec stays canonical.
	FlagPolicy uint16 = 1 << 0
)

// OpenResp flags.
const (
	// FlagExisting marks an open that found the session already live with
	// identical parameters.
	FlagExisting uint16 = 1 << 0
	// FlagRestored marks an open satisfied from a durable snapshot. Bit 2
	// is retired: every policy snapshots, so no session is ephemeral, and
	// the decoder rejects it like any other unknown bit.
	FlagRestored uint16 = 1 << 1
)

// Decoder armor bounds. Semantic validation (session-id length, domain
// dimensionality) stays server-side; these only cap what a hostile peer can
// make the decoder hold in memory.
const (
	headerLen = 12 // version u8 + type u8 + flags u16 + seq u64
	crcLen    = 4

	maxIDLen     = 256
	maxPointDim  = 1024
	maxMsgLen    = 1024
	maxPolicyLen = 64

	// MaxFrameBytes bounds one frame body (everything after the length
	// prefix). The largest legitimate frame — an ObserveReq at the session
	// tier's 64-resource ceiling — is under 1 KiB.
	MaxFrameBytes = headerLen + 16 + 2 + maxIDLen + 8*maxPointDim + crcLen
)

// Frame is the decoded form of any wire frame. One struct covers every
// type so a single instance can be reused across a stream's lifetime
// without allocation; only the fields of the decoded Type are meaningful.
// Byte-slice fields (ID, Evicted, Msg) alias the decode buffer — they are
// valid until the next Reader.Next or DecodeFrame call on that buffer.
type Frame struct {
	Type  Type
	Flags uint16
	Seq   uint64

	// OpenReq: ID, Resources, RMin, Seed, Init, and (under FlagPolicy) the
	// optimizer-policy name.
	// SuggestReq, CloseReq: ID.
	// ObserveReq: ID, Index, Cost, Point.
	ID        []byte
	Resources uint32
	RMin      float64
	Seed      uint64
	Init      uint32
	Policy    []byte
	Index     uint32
	Cost      float64
	Point     []float64

	// OpenResp: Observations, Evicted, FlagExisting/FlagRestored.
	// SuggestResp: Observations, Point. ObserveResp: Observations.
	Observations uint32
	Evicted      []byte

	// CloseResp.
	Closed bool

	// Error: an application-level failure for Seq's request. Status carries
	// an HTTP status code, so frame rejections and HTTP-level failures share
	// one error taxonomy; RetryAfterSec is the Retry-After hint.
	Status        uint16
	RetryAfterSec uint32
	Msg           []byte
}

// Reset clears f to the zero frame while keeping Point's capacity for
// reuse.
func (f *Frame) Reset() {
	point := f.Point[:0]
	*f = Frame{Point: point}
}

// CopyFrom deep-copies src into f, reusing f's slice capacity where it can.
// DecodeFrame leaves byte and point fields aliasing the decode buffer; a
// frame that must outlive that buffer (a response handed across goroutines)
// is copied out through this.
func (f *Frame) CopyFrom(src *Frame) {
	point := append(f.Point[:0], src.Point...)
	id := append(f.ID[:0], src.ID...)
	evicted := append(f.Evicted[:0], src.Evicted...)
	msg := append(f.Msg[:0], src.Msg...)
	policy := append(f.Policy[:0], src.Policy...)
	*f = *src
	f.Point, f.ID, f.Evicted, f.Msg, f.Policy = point, id, evicted, msg, policy
}

// allowedFlags returns the flag bits a frame of type t may carry.
func allowedFlags(t Type) uint16 {
	switch t {
	case TOpenReq:
		return FlagPolicy
	case TOpenResp:
		return FlagExisting | FlagRestored
	}
	return 0
}

// AppendFrame appends the complete length-prefixed encoding of f to dst and
// returns the extended slice. It allocates only when dst lacks capacity.
//
//hbo:codec frame encode
//hbo:noalloc
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if err := validateFrame(f); err != nil {
		return dst, err
	}
	if f.Type == TOpenReq && f.Flags&FlagPolicy != 0 && len(f.Policy) == 0 {
		// Flag ⇔ non-empty keeps the encoding canonical (the empty name is
		// spelled "no flag, no bytes", never "flag plus zero length").
		return dst, fmt.Errorf("wire: FlagPolicy set with empty policy name")
	}
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // patched below //codec:skip length prefix is framing; Reader strips it before DecodeFrame sees the buffer
	bodyAt := len(dst)
	dst = append(dst, Version, byte(f.Type))
	dst = binary.LittleEndian.AppendUint16(dst, f.Flags)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	switch f.Type {
	case TOpenReq:
		dst = appendBytes16(dst, f.ID)
		dst = binary.LittleEndian.AppendUint32(dst, f.Resources)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.RMin))
		dst = binary.LittleEndian.AppendUint64(dst, f.Seed)
		dst = binary.LittleEndian.AppendUint32(dst, f.Init)
		if f.Flags&FlagPolicy != 0 {
			dst = appendBytes16(dst, f.Policy)
		}
	case TOpenResp:
		dst = binary.LittleEndian.AppendUint32(dst, f.Observations)
		dst = appendBytes16(dst, f.Evicted)
	case TSuggestReq, TCloseReq:
		dst = appendBytes16(dst, f.ID)
	case TSuggestResp:
		dst = binary.LittleEndian.AppendUint32(dst, f.Observations)
		dst = appendPoint(dst, f.Point)
	case TObserveReq:
		dst = appendBytes16(dst, f.ID)
		dst = binary.LittleEndian.AppendUint32(dst, f.Index)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.Cost))
		dst = appendPoint(dst, f.Point)
	case TObserveResp:
		dst = binary.LittleEndian.AppendUint32(dst, f.Observations)
	case TCloseResp:
		if f.Closed {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case TError:
		dst = binary.LittleEndian.AppendUint16(dst, f.Status)
		dst = binary.LittleEndian.AppendUint32(dst, f.RetryAfterSec)
		dst = appendBytes16(dst, f.Msg)
	}
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[bodyAt:]))
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-bodyAt))
	return dst, nil
}

// validateFrame rejects frames the canonical encoding cannot represent.
func validateFrame(f *Frame) error {
	switch f.Type {
	case TOpenReq, TOpenResp, TSuggestReq, TSuggestResp,
		TObserveReq, TObserveResp, TCloseReq, TCloseResp, TError:
	default:
		return fmt.Errorf("wire: unknown frame type %d", f.Type)
	}
	if f.Flags&^allowedFlags(f.Type) != 0 {
		return fmt.Errorf("wire: flags %04x invalid for %v", f.Flags, f.Type)
	}
	if len(f.ID) > maxIDLen {
		return fmt.Errorf("wire: id of %d bytes over %d", len(f.ID), maxIDLen)
	}
	if len(f.Evicted) > maxIDLen {
		return fmt.Errorf("wire: evicted id of %d bytes over %d", len(f.Evicted), maxIDLen)
	}
	if len(f.Msg) > maxMsgLen {
		return fmt.Errorf("wire: message of %d bytes over %d", len(f.Msg), maxMsgLen)
	}
	if len(f.Point) > maxPointDim {
		return fmt.Errorf("wire: point of %d dims over %d", len(f.Point), maxPointDim)
	}
	if len(f.Policy) > maxPolicyLen {
		return fmt.Errorf("wire: policy name of %d bytes over %d", len(f.Policy), maxPolicyLen)
	}
	return nil
}

func appendBytes16(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

func appendPoint(dst []byte, p []float64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p)))
	for _, v := range p {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// frameReader is a bounds-checked cursor over one untrusted frame body.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *frameReader) take(n int) []byte {
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

func (r *frameReader) u8() uint8 {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *frameReader) u16() uint16 {
	if p := r.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *frameReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *frameReader) f64() float64 { return math.Float64frombits(r.u64()) }

// bytes16 reads a u16-prefixed byte string, aliasing the input buffer.
func (r *frameReader) bytes16(what string, limit int) []byte {
	n := int(r.u16())
	if r.err == nil && n > limit {
		r.fail("%s of %d bytes over %d", what, n, limit)
		return nil
	}
	return r.take(n)
}

// point reads a u16-prefixed float vector into dst's capacity.
func (r *frameReader) point(dst []float64) []float64 {
	n := int(r.u16())
	if r.err != nil {
		return dst[:0]
	}
	if n > maxPointDim {
		r.fail("point of %d dims over %d", n, maxPointDim)
		return dst[:0]
	}
	if len(r.b)-r.off < 8*n {
		r.fail("truncated point of %d dims at offset %d", n, r.off)
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = r.f64()
	}
	return dst
}

// DecodeFrame parses one frame body (the bytes after the length prefix)
// into f. Byte-slice fields of f alias buf; Point reuses f's existing
// capacity. It never panics on hostile input: the CRC is checked before any
// field is trusted, every length against the bytes actually present, and
// any accepted frame re-encodes to exactly buf (canonical codec).
//
//hbo:codec frame decode
//hbo:noalloc
func DecodeFrame(buf []byte, f *Frame) error {
	if len(buf) < headerLen+crcLen {
		return fmt.Errorf("wire: %d-byte frame shorter than any valid frame", len(buf))
	}
	if len(buf) > MaxFrameBytes {
		return fmt.Errorf("wire: %d-byte frame over the %d-byte bound", len(buf), MaxFrameBytes)
	}
	body, tail := buf[:len(buf)-crcLen], buf[len(buf)-crcLen:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return fmt.Errorf("wire: frame CRC mismatch (got %08x want %08x)", got, want)
	}
	r := &frameReader{b: body}
	if v := r.u8(); v != Version {
		return fmt.Errorf("wire: unsupported frame version %d", v)
	}
	f.Reset()
	f.Type = Type(r.u8())
	f.Flags = r.u16()
	f.Seq = r.u64()
	if err := validateFrame(f); err != nil {
		return err
	}
	switch f.Type {
	case TOpenReq:
		f.ID = r.bytes16("id", maxIDLen)
		f.Resources = r.u32()
		f.RMin = r.f64()
		f.Seed = r.u64()
		f.Init = r.u32()
		if f.Flags&FlagPolicy != 0 {
			f.Policy = r.bytes16("policy", maxPolicyLen)
			if r.err == nil && len(f.Policy) == 0 {
				return fmt.Errorf("wire: FlagPolicy set with empty policy name")
			}
		}
	case TOpenResp:
		f.Observations = r.u32()
		f.Evicted = r.bytes16("evicted id", maxIDLen)
	case TSuggestReq, TCloseReq:
		f.ID = r.bytes16("id", maxIDLen)
	case TSuggestResp:
		f.Observations = r.u32()
		f.Point = r.point(f.Point)
	case TObserveReq:
		f.ID = r.bytes16("id", maxIDLen)
		f.Index = r.u32()
		f.Cost = r.f64()
		f.Point = r.point(f.Point)
	case TObserveResp:
		f.Observations = r.u32()
	case TCloseResp:
		switch r.u8() {
		case 0:
			f.Closed = false
		case 1:
			f.Closed = true
		default:
			if r.err == nil {
				return fmt.Errorf("wire: non-canonical CloseResp bool")
			}
		}
	case TError:
		f.Status = r.u16()
		f.RetryAfterSec = r.u32()
		f.Msg = r.bytes16("message", maxMsgLen)
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after %v frame", len(r.b)-r.off, f.Type)
	}
	return nil
}

// MalformedError marks a codec-level rejection from Reader.Next — a frame
// the peer encoded wrong (length prefix out of bounds, CRC mismatch, layout
// violation) as opposed to an I/O error reading the stream. The distinction
// matters to servers: a malformed frame is peer corruption worth counting
// and alerting on, while a dropped connection mid-frame is ordinary churn.
type MalformedError struct{ Err error }

func (e *MalformedError) Error() string { return e.Err.Error() }
func (e *MalformedError) Unwrap() error { return e.Err }

// IsMalformed reports whether err is a codec-level rejection.
func IsMalformed(err error) bool {
	var me *MalformedError
	return errors.As(err, &me)
}

// Reader decodes a stream of length-prefixed frames from r, reusing one
// internal buffer across frames. Frames decoded by Next alias that buffer,
// so each frame must be consumed before the next call.
type Reader struct {
	r      io.Reader
	prefix [4]byte
	buf    []byte
}

// NewReader builds a frame reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Reset rebinds the reader to a new stream, keeping its buffer.
func (rd *Reader) Reset(r io.Reader) { rd.r = r }

// Next reads and decodes one frame into f. io.EOF at a frame boundary is
// returned as-is (clean end of stream); any partial frame surfaces as
// io.ErrUnexpectedEOF.
func (rd *Reader) Next(f *Frame) error {
	if _, err := io.ReadFull(rd.r, rd.prefix[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(rd.prefix[:])
	if n < headerLen+crcLen || n > MaxFrameBytes {
		return &MalformedError{Err: fmt.Errorf("wire: frame length %d outside [%d,%d]", n, headerLen+crcLen, MaxFrameBytes)}
	}
	if cap(rd.buf) < int(n) {
		rd.buf = make([]byte, n)
	}
	rd.buf = rd.buf[:n]
	if _, err := io.ReadFull(rd.r, rd.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if err := DecodeFrame(rd.buf, f); err != nil {
		return &MalformedError{Err: err}
	}
	return nil
}

// Writer encodes frames onto w through one reusable scratch buffer. Not
// safe for concurrent use; callers serialize (the stream client under its
// connection mutex, the server on the stream's handler goroutine).
type Writer struct {
	w       io.Writer
	scratch []byte
}

// NewWriter builds a frame writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Reset rebinds the writer to a new stream, keeping its scratch.
func (wr *Writer) Reset(w io.Writer) { wr.w = w }

// WriteFrame encodes f and writes the length-prefixed frame in one Write
// call (one syscall on an unbuffered conn, one copy on a bufio.Writer).
func (wr *Writer) WriteFrame(f *Frame) error {
	b, err := AppendFrame(wr.scratch[:0], f)
	if err != nil {
		return err
	}
	wr.scratch = b[:0]
	_, err = wr.w.Write(b)
	return err
}

// readerPool and writerPool recycle per-stream codec state, so opening a
// session stream does not re-grow fresh scratch buffers each time.
var readerPool = sync.Pool{New: func() any { return &Reader{} }}
var writerPool = sync.Pool{New: func() any { return &Writer{} }}

// GetReader fetches a pooled frame reader bound to r.
func GetReader(r io.Reader) *Reader {
	rd := readerPool.Get().(*Reader)
	rd.Reset(r)
	return rd
}

// PutReader returns a reader to the pool; the caller must not use it again.
func PutReader(rd *Reader) {
	rd.Reset(nil)
	readerPool.Put(rd)
}

// GetWriter fetches a pooled frame writer bound to w.
func GetWriter(w io.Writer) *Writer {
	wr := writerPool.Get().(*Writer)
	wr.Reset(w)
	return wr
}

// PutWriter returns a writer to the pool; the caller must not use it again.
func PutWriter(wr *Writer) {
	wr.Reset(nil)
	writerPool.Put(wr)
}
