package sessiond

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/sim"
)

var genCorpus = flag.Bool("gen-corpus", false, "rewrite the FuzzSnapshotDecode seed corpus from the current codec")

// snapTestCost is a smooth deterministic objective for driving optimizers.
func snapTestCost(p []float64) float64 {
	c := 0.0
	for i, v := range p {
		c += v * float64(i+1) * 0.2
	}
	return math.Cos(c*5) + c
}

// buildSnapshot drives a fresh optimizer through rounds suggest+observe
// cycles and wraps its exported state in a full session snapshot.
func buildSnapshot(t *testing.T, id string, rounds int) *snapshot {
	t.Helper()
	p := params{resources: 3, rmin: 0.1, seed: 99, init: 4}
	opt, err := bo.NewOptimizer(bo.Domain{N: p.resources, RMin: p.rmin}, boConfig(p), sim.NewRNG(p.seed))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		pt, err := opt.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Observe(pt, snapTestCost(pt)); err != nil {
			t.Fatal(err)
		}
	}
	return &snapshot{id: id, p: p, opt: opt.ExportState()}
}

// sameSnapshot compares every field of two snapshots bit for bit.
func sameSnapshot(t *testing.T, got, want *snapshot) {
	t.Helper()
	if got.id != want.id || got.p != want.p {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	sameF64s := func(tag string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: len %d vs %d", tag, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s[%d]: %x vs %x", tag, i, math.Float64bits(g[i]), math.Float64bits(w[i]))
			}
		}
	}
	if got.opt.RNGState != want.opt.RNGState {
		t.Fatalf("rng state %x vs %x", got.opt.RNGState, want.opt.RNGState)
	}
	if len(got.opt.X) != len(want.opt.X) {
		t.Fatalf("points: %d vs %d", len(got.opt.X), len(want.opt.X))
	}
	for i := range want.opt.X {
		sameF64s(fmt.Sprintf("x[%d]", i), got.opt.X[i], want.opt.X[i])
	}
	sameF64s("y", got.opt.Y, want.opt.Y)
}

// TestSnapshotRoundTrip is the codec's core contract: decode(encode(s))
// reproduces every field bit for bit, at every stage of a session's life —
// empty, mid-init, and in the GP phase.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, rounds := range []int{0, 2, 9} {
		s := buildSnapshot(t, "round-trip", rounds)
		blob := encodeSnapshot(s)
		got, err := decodeSnapshot(blob)
		if err != nil {
			t.Fatalf("rounds=%d: decode: %v", rounds, err)
		}
		sameSnapshot(t, got, s)

		// The codec is canonical: re-encoding an accepted snapshot yields
		// the identical byte string (the property the fuzz target leans on).
		if !bytes.Equal(encodeSnapshot(got), blob) {
			t.Fatalf("rounds=%d: re-encode differs", rounds)
		}

		// A restored optimizer must continue the suggestion stream.
		restored, err := policies.Restore(s.p.policy, bo.Domain{N: s.p.resources, RMin: s.p.rmin}, boConfig(s.p), got.opt)
		if err != nil {
			t.Fatalf("rounds=%d: restore: %v", rounds, err)
		}
		ref, err := policies.Restore(s.p.policy, bo.Domain{N: s.p.resources, RMin: s.p.rmin}, boConfig(s.p), s.opt)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := ref.Next()
		if err != nil {
			t.Fatal(err)
		}
		gp, err := restored.Next()
		if err != nil {
			t.Fatal(err)
		}
		for d := range wp {
			if math.Float64bits(gp[d]) != math.Float64bits(wp[d]) {
				t.Fatalf("rounds=%d: post-decode suggestion differs at dim %d", rounds, d)
			}
		}
	}
}

// TestSnapshotEncodeDeterministic pins byte-level determinism: encoding the
// same state twice must produce identical blobs (no map iteration leaks in).
func TestSnapshotEncodeDeterministic(t *testing.T) {
	s := buildSnapshot(t, "determinism", 6)
	if !bytes.Equal(encodeSnapshot(s), encodeSnapshot(s)) {
		t.Fatal("two encodes of the same snapshot differ")
	}
}

// TestSnapshotDetectsCorruption flips every byte of a valid snapshot in turn;
// the decoder must reject each mutant (CRC catches any single-byte flip).
func TestSnapshotDetectsCorruption(t *testing.T) {
	blob := encodeSnapshot(buildSnapshot(t, "corrupt", 5))
	for i := range blob {
		mutant := append([]byte(nil), blob...)
		mutant[i] ^= 0x41
		if _, err := decodeSnapshot(mutant); err == nil {
			t.Fatalf("byte flip at %d of %d accepted", i, len(blob))
		}
	}
}

// TestSnapshotDetectsTruncation cuts a valid snapshot at every length; no
// prefix may decode (the CRC tail plus length framing reject them all).
func TestSnapshotDetectsTruncation(t *testing.T) {
	blob := encodeSnapshot(buildSnapshot(t, "trunc", 5))
	for n := 0; n < len(blob); n++ {
		if _, err := decodeSnapshot(blob[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(blob))
		}
	}
}

// rewrapCRC replaces the trailing checksum with a freshly computed one so
// structural tests (and the fuzzer) can get past the integrity gate.
func rewrapCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// TestSnapshotRejectsHostileCounts hand-corrupts structural fields and
// re-wraps a valid CRC, proving the bounds checks (not just the checksum)
// hold the line against over-allocation.
func TestSnapshotRejectsHostileCounts(t *testing.T) {
	s := buildSnapshot(t, "hostile", 5)
	blob := encodeSnapshot(s)
	body := blob[:len(blob)-4]
	idLen := len(s.id)

	// Byte offsets into the fixed prefix of the wire format (see snapshot.go).
	offObsCount := 8 + 2 + idLen + 24 + 8

	mutate := func(name string, off int, val uint32) {
		t.Run(name, func(t *testing.T) {
			m := append([]byte(nil), body...)
			binary.LittleEndian.PutUint32(m[off:], val)
			if _, err := decodeSnapshot(rewrapCRC(m)); err == nil {
				t.Fatal("hostile count accepted")
			}
		})
	}
	mutate("observation count over cap", offObsCount, maxSessionObservations+1)
	mutate("observation count huge", offObsCount, math.MaxUint32)
	mutate("dim mismatch", offObsCount+4, uint32(s.p.resources+2))
	mutate("resources over cap", 8+2+idLen, maxResources+1)

	t.Run("unknown flags", func(t *testing.T) {
		m := append([]byte(nil), body...)
		binary.LittleEndian.PutUint16(m[6:], 0x8000)
		if _, err := decodeSnapshot(rewrapCRC(m)); err == nil {
			t.Fatal("unknown flag bits accepted")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		m := append(append([]byte(nil), body...), 0xAA)
		if _, err := decodeSnapshot(rewrapCRC(m)); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
}

// corpusDir is where FuzzSnapshotDecode's checked-in seeds live.
const corpusDir = "testdata/fuzz/FuzzSnapshotDecode"

// corpusSeeds builds the seed corpus deterministically from the current
// codec: full valid snapshots at several life stages plus structurally
// interesting mutants. Regenerate the files with -gen-corpus whenever the
// wire format changes.
func corpusSeeds(t *testing.T) map[string][]byte {
	empty := encodeSnapshot(buildSnapshot(t, "seed-empty", 0))
	mid := encodeSnapshot(buildSnapshot(t, "seed-midinit", 2))
	gp := encodeSnapshot(buildSnapshot(t, "seed-gp", 9))
	badMagic := append([]byte(nil), gp[:len(gp)-4]...)
	binary.LittleEndian.PutUint32(badMagic, 0xDEADBEEF)
	return map[string][]byte{
		"seed-valid-empty":   empty,
		"seed-valid-midinit": mid,
		"seed-valid-gp":      gp,
		"seed-bad-magic":     rewrapCRC(badMagic),
		"seed-truncated":     gp[:len(gp)/2],
		"seed-short":         {0x53, 0x53, 0x42, 0x48},
	}
}

// TestFuzzSnapshotCorpus keeps the checked-in seed corpus in lockstep with
// the codec. With -gen-corpus it rewrites the files; without, it fails if
// they drifted (e.g. after a snapshotVersion bump).
func TestFuzzSnapshotCorpus(t *testing.T) {
	seeds := corpusSeeds(t)
	if *genCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, data := range seeds {
		raw, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			t.Fatalf("seed corpus out of date (run with -gen-corpus): %v", err)
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if string(raw) != want {
			t.Fatalf("seed %s drifted from the current codec (run with -gen-corpus)", name)
		}
	}
}

// FuzzSnapshotDecode hammers the snapshot decoder with adversarial bytes.
// The decoder must never panic and never over-allocate (every count is
// validated against the bytes actually present). To reach structural checks
// beyond the integrity gate, each input is also retried with a freshly
// computed valid CRC appended. Any accepted blob must round-trip: the codec
// is canonical, so re-encoding must reproduce the accepted bytes exactly.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x53, 0x42, 0x48})
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := decodeSnapshot(data); err == nil {
			if !bytes.Equal(encodeSnapshot(s), data) {
				t.Fatalf("accepted blob does not re-encode canonically")
			}
		}
		wrapped := rewrapCRC(data)
		if s, err := decodeSnapshot(wrapped); err == nil {
			if !bytes.Equal(encodeSnapshot(s), wrapped) {
				t.Fatalf("accepted rewrapped blob does not re-encode canonically")
			}
		}
	})
}
