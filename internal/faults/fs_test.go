package faults

import (
	"bytes"
	"errors"
	"testing"

	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
)

// openStore opens a snapstore.FileStore over fsys (nil: the real FS).
func openStore(t *testing.T, dir string, fsys snapstore.FS, opts snapstore.Options) *snapstore.FileStore {
	t.Helper()
	s, err := snapstore.Open(fsys, dir, opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return s
}

// TestFaultFSTornWrite schedules a torn write under a live FileStore: the
// failed Put must surface the injected error, leave the in-memory index
// unchanged, and a later clean reopen must recover every committed record
// while the torn one never surfaces.
func TestFaultFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FSPlan{})
	opts := snapstore.Options{}
	s := openStore(t, dir, ffs, opts)

	if err := s.Put("committed", bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	// The next write (index 1) is torn after 30 of its ~127 bytes.
	ffs.SetPlan(FSPlan{TornWrites: map[int]int{1: 30}})
	err := s.Put("torn", bytes.Repeat([]byte{2}, 100))
	var fe *FSFaultError
	if !errors.As(err, &fe) || fe.Op != "write" {
		t.Fatalf("torn put returned %v, want an injected write FSFaultError", err)
	}
	if _, ok, _ := s.Get("torn"); ok {
		t.Fatal("failed put is visible in the index (write-ahead violated)")
	}
	// The store rotated past the torn record; new appends stay reachable.
	if err := s.Put("after", bytes.Repeat([]byte{3}, 100)); err != nil {
		t.Fatalf("append after torn write: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Stats().TornWrites; got != 1 {
		t.Fatalf("injected %d torn writes, want 1", got)
	}

	clean := openStore(t, dir, nil, opts)
	defer clean.Close()
	for _, id := range []string{"committed", "after"} {
		if _, ok, _ := clean.Get(id); !ok {
			t.Fatalf("committed record %q lost across the crash", id)
		}
	}
	if _, ok, _ := clean.Get("torn"); ok {
		t.Fatal("torn record resurrected by recovery")
	}
}

// TestFaultFSSyncError checks that with the fsync policy on, a scheduled
// fsync failure surfaces from Put — the caller knows durability was not
// achieved instead of silently carrying on.
func TestFaultFSSyncError(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FSPlan{SyncErrs: map[int]bool{0: true}})
	s := openStore(t, dir, ffs, snapstore.Options{Fsync: true})
	defer s.Close()
	err := s.Put("id", []byte("payload"))
	var fe *FSFaultError
	if !errors.As(err, &fe) || fe.Op != "sync" {
		t.Fatalf("put under failing fsync returned %v, want injected sync error", err)
	}
	if ffs.Stats().SyncErrs != 1 {
		t.Fatal("sync error not counted")
	}
}

// TestFaultFSShortReadRecovery injects a short read during the recovery
// scan: the segment appears truncated, so the boot succeeds with only the
// records that fit in what was read.
func TestFaultFSShortReadRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := snapstore.Options{}
	s := openStore(t, dir, nil, opts)
	if err := s.Put("first", bytes.Repeat([]byte{1}, 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("second", bytes.Repeat([]byte{2}, 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery's segment scan is read index 0; cut it to 80 bytes — enough
	// for the first record (~77 bytes) but not the second.
	ffs := NewFaultFS(nil, FSPlan{ShortReads: map[int]int{0: 80}})
	s = openStore(t, dir, ffs, opts)
	defer s.Close()
	if _, ok, _ := s.Get("first"); !ok {
		t.Fatal("record before the short-read horizon lost")
	}
	if _, ok, _ := s.Get("second"); ok {
		t.Fatal("record beyond the short-read horizon surfaced")
	}
	if ffs.Stats().ShortReads != 1 {
		t.Fatal("short read not counted")
	}
}

// TestFaultFSCorruptReadRecovery flips a byte mid-scan: the CRC rejects the
// record, the scan stops there, and the boot still succeeds.
func TestFaultFSCorruptReadRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := snapstore.Options{}
	s := openStore(t, dir, nil, opts)
	if err := s.Put("only", bytes.Repeat([]byte{7}, 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ffs := NewFaultFS(nil, FSPlan{CorruptReads: map[int]int{0: 20}})
	s = openStore(t, dir, ffs, opts)
	defer s.Close()
	if _, ok, _ := s.Get("only"); ok {
		t.Fatal("bit-rotted record passed the CRC")
	}
	if ffs.Stats().CorruptReads != 1 {
		t.Fatal("corrupt read not counted")
	}
}

// TestFaultFSDeterminism runs the same operation sequence against the same
// plan twice and requires identical stats — the property every chaos test
// leans on.
func TestFaultFSDeterminism(t *testing.T) {
	run := func() FSStats {
		dir := t.TempDir()
		ffs := NewFaultFS(nil, FSPlan{
			TornWrites: map[int]int{2: 10},
			SyncErrs:   map[int]bool{1: true},
		})
		s := openStore(t, dir, ffs, snapstore.Options{Fsync: true})
		for i := 0; i < 4; i++ {
			_ = s.Put("id", bytes.Repeat([]byte{byte(i)}, 40))
		}
		_ = s.Close()
		return ffs.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same plan and sequence diverged: %+v vs %+v", a, b)
	}
	if a.TornWrites != 1 || a.SyncErrs != 1 {
		t.Fatalf("expected both scheduled faults to fire: %+v", a)
	}
}
