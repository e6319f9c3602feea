package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// sampleFrames returns one representative frame of every type.
func sampleFrames() []Frame {
	return []Frame{
		{Type: TOpenReq, Seq: 2, ID: []byte("c0001"), Resources: 3, RMin: 0.1, Seed: 42, Init: 5},
		{Type: TOpenReq, Seq: 2, Flags: FlagPolicy, ID: []byte("c0001"), Resources: 3, RMin: 0.1, Seed: 42, Init: 5, Policy: []byte("linucb")},
		{Type: TOpenResp, Seq: 2, Flags: FlagExisting | FlagRestored, Observations: 7, Evicted: []byte("c0009")},
		{Type: TOpenResp, Seq: 2, Flags: FlagRestored, Observations: 0},
		{Type: TSuggestReq, Seq: 3, ID: []byte("c0001")},
		{Type: TSuggestResp, Seq: 3, Observations: 7, Point: []float64{0.25, 0.5, 0.25, 0.75}},
		{Type: TObserveReq, Seq: 4, ID: []byte("c0001"), Index: 7, Cost: -1.25, Point: []float64{0.25, 0.5, 0.25, 0.75}},
		{Type: TObserveReq, Seq: 5, ID: []byte("c0001"), Index: ^uint32(0), Cost: math.Inf(1), Point: nil},
		{Type: TObserveResp, Seq: 4, Observations: 8},
		{Type: TCloseReq, Seq: 6, ID: []byte("c0001")},
		{Type: TCloseResp, Seq: 6, Closed: true},
		{Type: TCloseResp, Seq: 7, Closed: false},
		{Type: TError, Seq: 8, Status: 503, RetryAfterSec: 1, Msg: []byte("sessiond: suggest queue full, retry later")},
	}
}

func encode(t *testing.T, f *Frame) []byte {
	t.Helper()
	b, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame(%v): %v", f.Type, err)
	}
	return b
}

// TestRoundTrip checks every frame type survives encode∘decode with every
// field intact and re-encodes byte-identically (the canonical invariant).
func TestRoundTrip(t *testing.T) {
	for _, orig := range sampleFrames() {
		b := encode(t, &orig)
		var got Frame
		if err := DecodeFrame(b[4:], &got); err != nil {
			t.Fatalf("DecodeFrame(%v): %v", orig.Type, err)
		}
		assertFrameEqual(t, &orig, &got)
		re, err := AppendFrame(nil, &got)
		if err != nil {
			t.Fatalf("re-encode %v: %v", orig.Type, err)
		}
		if !bytes.Equal(b, re) {
			t.Fatalf("%v: re-encode not canonical\n first: %x\nsecond: %x", orig.Type, b, re)
		}
	}
}

func assertFrameEqual(t *testing.T, want, got *Frame) {
	t.Helper()
	if want.Type != got.Type || want.Flags != got.Flags || want.Seq != got.Seq {
		t.Fatalf("header mismatch: want %+v got %+v", want, got)
	}
	if !bytes.Equal(want.ID, got.ID) || !bytes.Equal(want.Evicted, got.Evicted) ||
		!bytes.Equal(want.Msg, got.Msg) || !bytes.Equal(want.Policy, got.Policy) {
		t.Fatalf("%v: byte fields mismatch: want %+v got %+v", want.Type, want, got)
	}
	if len(want.Point) != len(got.Point) {
		t.Fatalf("%v: point length %d vs %d", want.Type, len(want.Point), len(got.Point))
	}
	for i := range want.Point {
		if math.Float64bits(want.Point[i]) != math.Float64bits(got.Point[i]) {
			t.Fatalf("%v: point[%d] %v vs %v", want.Type, i, want.Point[i], got.Point[i])
		}
	}
	if math.Float64bits(want.RMin) != math.Float64bits(got.RMin) ||
		math.Float64bits(want.Cost) != math.Float64bits(got.Cost) {
		t.Fatalf("%v: float fields mismatch: want %+v got %+v", want.Type, want, got)
	}
	if want.Resources != got.Resources || want.Seed != got.Seed || want.Init != got.Init ||
		want.Index != got.Index || want.Observations != got.Observations ||
		want.Closed != got.Closed || want.Status != got.Status ||
		want.RetryAfterSec != got.RetryAfterSec {
		t.Fatalf("%v: scalar fields mismatch: want %+v got %+v", want.Type, want, got)
	}
}

// TestDecodeRejects exercises the decoder armor on malformed input.
func TestDecodeRejects(t *testing.T) {
	good := encode(t, &Frame{Type: TSuggestResp, Seq: 1, Observations: 3, Point: []float64{0.5, 0.5}})
	body := good[4:]

	cases := map[string][]byte{
		"empty":     {},
		"too short": body[:8],
	}
	flip := append([]byte(nil), body...)
	flip[len(flip)-1] ^= 0xff
	cases["bad crc"] = flip

	badVersion := append([]byte(nil), body...)
	badVersion[0] = 99
	cases["bad version"] = recrc(badVersion)

	badType := append([]byte(nil), body...)
	badType[1] = 200
	cases["unknown type"] = recrc(badType)

	// Codes 1 and 2 once carried a version handshake; they stay retired.
	retired := append([]byte(nil), body...)
	retired[1] = 1
	cases["retired type"] = recrc(retired)

	badFlags := append([]byte(nil), body...)
	binary.LittleEndian.PutUint16(badFlags[2:], 0x8000)
	cases["unknown flags"] = recrc(badFlags)

	// OpenResp bit 2 once marked a session whose policy could not snapshot;
	// every policy snapshots now, so the bit is retired.
	retiredFlag := append([]byte(nil), encode(t, &Frame{Type: TOpenResp, Seq: 1})[4:]...)
	binary.LittleEndian.PutUint16(retiredFlag[2:], 1<<2)
	cases["retired open-resp flag"] = recrc(retiredFlag)

	trailing := append(append([]byte(nil), body[:len(body)-4]...), 0)
	cases["trailing byte"] = recrc(append(trailing, 0, 0, 0, 0)[:len(trailing)+4])

	hugePoint := append([]byte(nil), body...)
	binary.LittleEndian.PutUint16(hugePoint[16:], 60000)
	cases["hostile point length"] = recrc(hugePoint)

	closeBad := encode(t, &Frame{Type: TCloseResp, Seq: 1, Closed: true})[4:]
	closeBad = append([]byte(nil), closeBad...)
	closeBad[12] = 2
	cases["non-canonical bool"] = recrc(closeBad)

	for name, b := range cases {
		var f Frame
		if err := DecodeFrame(b, &f); err == nil {
			t.Errorf("%s: decode accepted %x", name, b)
		}
	}
}

// TestPolicyCanonicality pins the flag ⇔ non-empty invariant on both codec
// sides: the empty policy is spelled "no flag, no bytes", never "flag plus
// zero length", so pre-policy frames stay byte-identical and every encoding
// of a policy name is unique.
func TestPolicyCanonicality(t *testing.T) {
	if _, err := AppendFrame(nil, &Frame{Type: TOpenReq, Seq: 1, Flags: FlagPolicy,
		ID: []byte("c"), Resources: 3, RMin: 0.1, Seed: 1, Init: 5}); err == nil {
		t.Fatal("AppendFrame accepted FlagPolicy with empty policy")
	}
	long := bytes.Repeat([]byte("p"), 65)
	if _, err := AppendFrame(nil, &Frame{Type: TOpenReq, Seq: 1, Flags: FlagPolicy,
		ID: []byte("c"), Resources: 3, RMin: 0.1, Seed: 1, Init: 5, Policy: long}); err == nil {
		t.Fatal("AppendFrame accepted an oversize policy")
	}
	good := encode(t, &Frame{Type: TOpenReq, Seq: 1, Flags: FlagPolicy,
		ID: []byte("c"), Resources: 3, RMin: 0.1, Seed: 1, Init: 5, Policy: []byte("x")})
	body := append([]byte(nil), good[4:]...)
	// The policy field (u16 length + 1 byte) is the last thing before the
	// CRC; rewrite it as a zero-length payload with the flag still set.
	cut := append(body[:len(body)-4-3], 0, 0)
	var f Frame
	if err := DecodeFrame(recrc(append(cut, 0, 0, 0, 0)), &f); err == nil {
		t.Fatal("DecodeFrame accepted FlagPolicy with zero-length policy")
	}
}

// recrc rewrites the trailing CRC so a corruption test hits the field
// validation it targets instead of the checksum.
func recrc(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	body := b[:len(b)-4]
	sum := make([]byte, 4)
	binary.LittleEndian.PutUint32(sum, crc32IEEE(body))
	return append(append([]byte(nil), body...), sum...)
}

func crc32IEEE(b []byte) uint32 {
	tbl := makeCRCTable()
	crc := ^uint32(0)
	for _, v := range b {
		crc = tbl[byte(crc)^v] ^ (crc >> 8)
	}
	return ^crc
}

func makeCRCTable() *[256]uint32 {
	var tbl [256]uint32
	for i := range tbl {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ 0xedb88320
			} else {
				crc >>= 1
			}
		}
		tbl[i] = crc
	}
	return &tbl
}

// TestReaderWriterStream pushes every sample frame through a Writer/Reader
// pair and checks clean EOF semantics at the stream boundary.
func TestReaderWriterStream(t *testing.T) {
	var buf bytes.Buffer
	wr := NewWriter(&buf)
	frames := sampleFrames()
	for i := range frames {
		if err := wr.WriteFrame(&frames[i]); err != nil {
			t.Fatalf("write %v: %v", frames[i].Type, err)
		}
	}
	rd := NewReader(&buf)
	var f Frame
	for i := range frames {
		if err := rd.Next(&f); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		assertFrameEqual(t, &frames[i], &f)
	}
	if err := rd.Next(&f); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// TestReaderPartialFrame checks a truncated tail surfaces as
// io.ErrUnexpectedEOF, not a clean EOF.
func TestReaderPartialFrame(t *testing.T) {
	b := encode(t, &Frame{Type: TSuggestReq, Seq: 1, ID: []byte("x")})
	rd := NewReader(bytes.NewReader(b[:len(b)-2]))
	var f Frame
	if err := rd.Next(&f); err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
}

// TestReaderRejectsOversizeLength checks the length prefix is bounded
// before any allocation.
func TestReaderRejectsOversizeLength(t *testing.T) {
	var pfx [4]byte
	binary.LittleEndian.PutUint32(pfx[:], uint32(MaxFrameBytes+1))
	rd := NewReader(bytes.NewReader(pfx[:]))
	var f Frame
	if err := rd.Next(&f); err == nil {
		t.Fatal("oversize length prefix accepted")
	}
}

// TestSteadyStateZeroAlloc proves the hot suggest/observe encode+decode
// path allocates nothing once buffers are warm — the codec-level guarantee
// behind the stream path's allocation budget, in the style of the bo
// PredictInto zero-alloc test.
func TestSteadyStateZeroAlloc(t *testing.T) {
	point := []float64{0.25, 0.5, 0.25, 0.75}
	req := Frame{Type: TObserveReq, ID: []byte("c0001"), Index: 3, Cost: -0.5, Point: point}
	sreq := Frame{Type: TSuggestReq, ID: []byte("c0001")}
	sresp := Frame{Type: TSuggestResp, Observations: 9, Point: point}

	buf := make([]byte, 0, 1024)
	var decoded Frame
	decoded.Point = make([]float64, 0, 8)

	var err error
	allocs := testing.AllocsPerRun(200, func() {
		for _, f := range []*Frame{&req, &sreq, &sresp} {
			buf, err = AppendFrame(buf[:0], f)
			if err != nil {
				t.Fatal(err)
			}
			if derr := DecodeFrame(buf[4:], &decoded); derr != nil {
				t.Fatal(derr)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode+decode made %v allocs/op, want 0", allocs)
	}
}

// TestReaderWriterSteadyStateZeroAlloc proves the framed io path is also
// allocation-free once the reader buffer and writer scratch are warm.
func TestReaderWriterSteadyStateZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(1024)
	wr := NewWriter(&buf)
	rd := NewReader(&buf)
	req := Frame{Type: TSuggestReq, Seq: 1, ID: []byte("c0001")}
	var f Frame
	// Warm the internal buffers before counting.
	if err := wr.WriteFrame(&req); err != nil {
		t.Fatal(err)
	}
	if err := rd.Next(&f); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := wr.WriteFrame(&req); err != nil {
			t.Fatal(err)
		}
		if err := rd.Next(&f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state framed io made %v allocs/op, want 0", allocs)
	}
}

// TestPooledCodecs checks Get/Put round-trips preserve nothing dangerous
// and rebind cleanly.
func TestPooledCodecs(t *testing.T) {
	var buf bytes.Buffer
	wr := GetWriter(&buf)
	if err := wr.WriteFrame(&Frame{Type: TCloseReq, Seq: 1, ID: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	PutWriter(wr)
	rd := GetReader(&buf)
	var f Frame
	if err := rd.Next(&f); err != nil {
		t.Fatal(err)
	}
	if f.Type != TCloseReq || string(f.ID) != "a" {
		t.Fatalf("pooled round trip mangled frame: %+v", f)
	}
	PutReader(rd)
}

func BenchmarkFrameEncodeSuggestResp(b *testing.B) {
	f := Frame{Type: TSuggestResp, Seq: 9, Observations: 12, Point: []float64{0.25, 0.5, 0.25, 0.75}}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], &f)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecodeObserveReq(b *testing.B) {
	f := Frame{Type: TObserveReq, Seq: 9, ID: []byte("c0001"), Index: 3, Cost: -0.5, Point: []float64{0.25, 0.5, 0.25, 0.75}}
	buf, err := AppendFrame(nil, &f)
	if err != nil {
		b.Fatal(err)
	}
	var out Frame
	out.Point = make([]float64, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeFrame(buf[4:], &out); err != nil {
			b.Fatal(err)
		}
	}
}
