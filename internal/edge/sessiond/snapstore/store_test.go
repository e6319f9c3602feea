package snapstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// blobFor builds a recognizable payload for an id.
func blobFor(id string, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i) ^ id[len(id)-1]
	}
	return b
}

// mustPut is a fatal-on-error Put.
func mustPut(t *testing.T, s *FileStore, id string, blob []byte) {
	t.Helper()
	if err := s.Put(id, blob); err != nil {
		t.Fatalf("put %s: %v", id, err)
	}
}

// reopen closes the store and opens the same directory again.
func reopen(t *testing.T, s *FileStore, dir string, opts Options) *FileStore {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r, err := Open(nil, dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return r
}

// TestFileStoreRoundTrip covers the basic contract: puts are readable,
// overwrites are later-wins, deletes tombstone, and everything survives a
// close/reopen cycle.
func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{}
	s, err := Open(nil, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "alpha", blobFor("alpha", 100))
	mustPut(t, s, "beta", blobFor("beta", 50))
	mustPut(t, s, "alpha", blobFor("alpha", 200)) // overwrite: later wins
	if err := s.Delete("beta"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("deleting an absent id must be a no-op, got %v", err)
	}

	check := func(s *FileStore, phase string) {
		t.Helper()
		blob, ok, err := s.Get("alpha")
		if err != nil || !ok {
			t.Fatalf("%s: get alpha: ok=%v err=%v", phase, ok, err)
		}
		if !bytes.Equal(blob, blobFor("alpha", 200)) {
			t.Fatalf("%s: alpha holds stale bytes", phase)
		}
		if _, ok, _ := s.Get("beta"); ok {
			t.Fatalf("%s: deleted beta still readable", phase)
		}
		ids, err := s.IDs()
		if err != nil || len(ids) != 1 || ids[0] != "alpha" {
			t.Fatalf("%s: ids = %v (err %v)", phase, ids, err)
		}
	}
	check(s, "live")
	s = reopen(t, s, dir, opts)
	defer s.Close()
	check(s, "recovered")
	// 4 records: three puts plus one tombstone (the absent-id delete is a
	// pure no-op and writes nothing).
	if rec := s.Recovery(); rec.Records != 4 || rec.CorruptSegments != 0 {
		t.Fatalf("recovery stats %+v, want 4 clean records", rec)
	}
}

// TestFileStoreRotation forces tiny segments and checks that appends span
// multiple files and recovery replays them all in order.
func TestFileStoreRotation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 256}
	s, err := Open(nil, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("s%02d", i), blobFor("x", 100))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(entries))
	}
	s = reopen(t, s, dir, opts)
	defer s.Close()
	if n := s.Len(); n != 20 {
		t.Fatalf("recovered %d sessions, want 20", n)
	}
}

// TestFileStoreCompaction checks that Compact shrinks the log to live data
// only, removes old segments, and that the compacted store recovers. The
// churn below leaves 4795 bytes of garbage, so segments just over that size
// keep the automatic trigger from firing while the log still spans two
// segments when Compact runs.
func TestFileStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 4800}
	s, err := Open(nil, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Churn: many overwrites and deletes leave mostly garbage.
	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ {
			mustPut(t, s, fmt.Sprintf("s%d", i), blobFor("y", 80+round))
		}
	}
	for i := 3; i < 5; i++ {
		if err := s.Delete(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("churn left %d segments, want 2 and no automatic compaction", len(entries))
	}
	before := s.SizeBytes()
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	after := s.SizeBytes()
	if after >= before/2 {
		t.Fatalf("compaction barely helped: %d -> %d bytes", before, after)
	}
	if entries, err = os.ReadDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 { // rewrite segment + fresh active
		t.Fatalf("compaction left %d segments, want 2", len(entries))
	}
	s = reopen(t, s, dir, opts)
	defer s.Close()
	if n := s.Len(); n != 3 {
		t.Fatalf("recovered %d sessions after compaction, want 3", n)
	}
	for i := 0; i < 3; i++ {
		blob, ok, _ := s.Get(fmt.Sprintf("s%d", i))
		if !ok || !bytes.Equal(blob, blobFor("y", 89)) {
			t.Fatalf("s%d lost its latest value through compaction", i)
		}
	}
}

// TestFileStoreAutoCompaction overwrites one id 50 times and checks the log
// the automatic compaction leaves, which runs inline on the Put that trips
// it. Each record is 119 bytes, so with 512-byte segments garbage first
// reaches the trigger on the 6th Put and then on every 5th Put after a
// compaction (6, 11, ..., 46). Each compaction writes its rewrite segment
// and a fresh active one, two sequence numbers on from the segment it
// seals; the first seals segment 1, the one the 6th Put rotated into. After
// the 50th Put the log is the 9th compaction's rewrite, segment 18, holding
// one record, and its active segment 19, holding the four Puts since.
func TestFileStoreAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 512}
	s, err := Open(nil, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		mustPut(t, s, "only", blobFor("z", 100))
	}
	rec := recordSize("only", blobFor("z", 100))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var layout []string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		layout = append(layout, fmt.Sprintf("%s:%d", e.Name(), info.Size()))
	}
	want := []string{
		fmt.Sprintf("%s:%d", segName(18), rec),
		fmt.Sprintf("%s:%d", segName(19), 4*rec),
	}
	if fmt.Sprint(layout) != fmt.Sprint(want) {
		t.Fatalf("segments after 50 puts = %v, want %v", layout, want)
	}
	s = reopen(t, s, dir, opts)
	defer s.Close()
	blob, ok, _ := s.Get("only")
	if !ok || !bytes.Equal(blob, blobFor("z", 100)) {
		t.Fatal("auto-compaction lost the live blob")
	}
	if got := s.Recovery(); got.Records != 5 || got.Segments != 2 {
		t.Fatalf("recovery stats %+v, want 5 records in 2 segments", got)
	}
}

// TestFileStoreTornTail simulates a crash mid-append: garbage bytes on the
// active segment's tail. Recovery must keep every committed record, report
// and truncate the torn tail, and leave the store appendable.
func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{}
	s, err := Open(nil, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "committed-1", blobFor("a", 60))
	mustPut(t, s, "committed-2", blobFor("b", 60))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn append: a valid-looking header whose payload never made it.
	seg := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := appendRecord(nil, opPut, "torn", blobFor("c", 500))
	if _, err := f.Write(torn[:len(torn)-200]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeWithTear, _ := os.Stat(seg)

	s, err = Open(nil, dir, opts)
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	rec := s.Recovery()
	if rec.Records != 2 || rec.CorruptSegments != 1 || rec.TornTailBytes == 0 {
		t.Fatalf("recovery stats %+v, want 2 records and a truncated tail", rec)
	}
	if _, ok, _ := s.Get("torn"); ok {
		t.Fatal("uncommitted torn record surfaced as data")
	}
	if fi, _ := os.Stat(seg); fi.Size() >= sizeWithTear.Size() {
		t.Fatalf("torn tail not truncated: %d bytes remain", fi.Size())
	}
	// The store must be appendable on the repaired boundary.
	mustPut(t, s, "after-crash", blobFor("d", 60))
	s = reopen(t, s, dir, opts)
	defer s.Close()
	if n := s.Len(); n != 3 {
		t.Fatalf("recovered %d sessions after repair, want 3", n)
	}
}

// TestFileStoreCorruptMidSegment flips a byte inside a sealed segment's
// first record: the scan of that segment stops (both its records are lost)
// but later segments still replay — boot never fails.
func TestFileStoreCorruptMidSegment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 128}
	s, err := Open(nil, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "victim-1", blobFor("a", 60))
	mustPut(t, s, "victim-2", blobFor("b", 60)) // same first segment region
	mustPut(t, s, "survivor", blobFor("c", 60)) // lands in a later segment
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segName(0))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+10] ^= 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(nil, dir, opts)
	if err != nil {
		t.Fatalf("boot failed on mid-segment corruption: %v", err)
	}
	defer s.Close()
	if rec := s.Recovery(); rec.CorruptSegments != 1 {
		t.Fatalf("recovery stats %+v, want 1 corrupt segment", rec)
	}
	if _, ok, _ := s.Get("victim-1"); ok {
		t.Fatal("corrupt record surfaced as data")
	}
	if _, ok, _ := s.Get("survivor"); !ok {
		t.Fatal("corruption in an early segment destroyed later segments")
	}
}

// TestFileStoreRejectsOversize checks the framing caps.
func TestFileStoreRejectsOversize(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty id accepted")
	}
	longID := string(make([]byte, maxStoreIDLen+1))
	if err := s.Put(longID, []byte("x")); err == nil {
		t.Fatal("oversize id accepted")
	}
}

// TestFileStoreClosedOps checks that a closed store refuses mutations.
func TestFileStoreClosedOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close must be idempotent, got %v", err)
	}
	if err := s.Put("id", []byte("x")); err == nil {
		t.Fatal("put accepted after close")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("compact accepted after close")
	}
}

// TestMemStore pins the reference implementation's contract.
func TestMemStore(t *testing.T) {
	m := NewMemStore()
	if err := m.Put("a", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("b", []byte{3}); err != nil {
		t.Fatal(err)
	}
	blob, ok, err := m.Get("a")
	if err != nil || !ok || !bytes.Equal(blob, []byte{1, 2}) {
		t.Fatalf("get a: %v %v %v", blob, ok, err)
	}
	blob[0] = 99 // callers own the returned copy
	if again, _, _ := m.Get("a"); again[0] != 1 {
		t.Fatal("Get returned an aliased buffer")
	}
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get("a"); ok {
		t.Fatal("deleted id still readable")
	}
	ids, _ := m.IDs()
	if len(ids) != 1 || ids[0] != "b" {
		t.Fatalf("ids = %v", ids)
	}
	if m.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must report the live footprint")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFileStorePut overwrites 64 session ids round-robin with 1 KiB
// blobs at the default segment size, so the garbage trips the automatic
// compaction every ~1000 Puts and ns/op includes its amortized rewrite.
func BenchmarkFileStorePut(b *testing.B) {
	s, err := Open(nil, b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const sessions = 64
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("session-%02d", i)
	}
	blob := blobFor("x", 1<<10)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(ids[i%sessions], blob); err != nil {
			b.Fatal(err)
		}
	}
}
